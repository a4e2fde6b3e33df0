"""The Edge Cache baseline: plain CDN workflow, stock AP.

Clients follow the two-step workflow of Section II-A exactly: resolve the
object's domain through the AP's ordinary forwarding DNS (LDNS -> ADNS ->
CDN DNS CNAME chain on a cold cache), then fetch the object from the
returned edge server over TCP.  Nothing is cached on the AP.
"""

from __future__ import annotations

import typing as _t

from repro.core.annotations import CacheableSpec
from repro.core.client_runtime import FetchResult
from repro.dnslib.cache_rr import CacheFlag
from repro.dnslib.resolver import StubResolver
from repro.dnslib.server import ForwardingDnsService
from repro.httplib.client import HttpClient, TARGET_IP_HEADER
from repro.httplib.messages import HttpRequest
from repro.httplib.url import Url
from repro.net.node import Node
from repro.baselines.base import CachingSystem, telemetry_of
from repro.testbed import Testbed

__all__ = ["EdgeCacheSystem", "EdgeCacheFetcher"]


class EdgeCacheFetcher:
    """Client-side retrieval via DNS + edge server."""

    def __init__(self, bed: Testbed, node: Node, app_id: str) -> None:
        self.bed = bed
        self.node = node
        self.sim = node.sim
        self.app_id = app_id
        self.telemetry = telemetry_of(bed)
        self.resolver = StubResolver(node, bed.transport, bed.ap.address,
                                     telemetry=self.telemetry)
        self.http = HttpClient(node, bed.transport, self.resolver,
                               telemetry=self.telemetry)
        self._specs: dict[str, CacheableSpec] = {}
        self.fetches = 0
        self._h_lookup = self.telemetry.histogram("client.lookup_ms")
        self._h_retrieval = self.telemetry.histogram("client.retrieval_ms")
        self._h_total = self.telemetry.histogram("client.total_ms")
        self._t_fetches = self.telemetry.counter("client.fetches")

    def register_spec(self, spec: CacheableSpec) -> None:
        self._specs[spec.base_url] = spec

    def fetch(self, url: str,
              ) -> _t.Generator[object, object, FetchResult]:
        parsed = Url.parse(url)
        with self.telemetry.span("request", app=self.app_id,
                                 url=parsed.base) as req:
            lookup_started = self.sim.now
            with self.telemetry.span("dns_lookup", parent=req,
                                     domain=parsed.host):
                resolution = yield from self.resolver.resolve(parsed.host)
            lookup_latency = self.sim.now - lookup_started

            retrieval_started = self.sim.now
            request = HttpRequest(parsed, headers={
                TARGET_IP_HEADER: str(resolution.address)})
            with self.telemetry.span("edge_fetch", parent=req):
                response = yield from self.http.transport_call(request)
            retrieval_latency = self.sim.now - retrieval_started
            req.set_attr("source", "edge")

        result = FetchResult(
            data_object=response.body if response.ok else None,
            source="edge",
            flag=CacheFlag.CACHE_MISS,
            lookup_latency_s=lookup_latency,
            retrieval_latency_s=retrieval_latency,
            used_cached_flags=resolution.from_cache,
            cache_hit=False)
        self.fetches += 1
        self._h_lookup.observe(lookup_latency * 1e3, app=self.app_id)
        self._h_retrieval.observe(retrieval_latency * 1e3,
                                  app=self.app_id, source="edge")
        self._h_total.observe(result.total_latency_s * 1e3,
                              app=self.app_id, source="edge")
        self._t_fetches.inc(app=self.app_id, source="edge", hit="no")
        return result

    def flush(self) -> None:
        self.resolver.flush_cache()


class EdgeCacheSystem(CachingSystem):
    """Stock AP + CDN-style edge caching."""

    name = "Edge Cache"

    def __init__(self) -> None:
        self.ap_dns: ForwardingDnsService | None = None

    def install(self, bed: Testbed) -> None:
        self.ap_dns = ForwardingDnsService(bed.ap, bed.transport,
                                           bed.ldns.address)
        self.ap_dns.bind_telemetry(telemetry_of(bed))
        self.ap_dns.install()

    def new_fetcher(self, bed: Testbed, node: Node,
                    app_id: str) -> EdgeCacheFetcher:
        return EdgeCacheFetcher(bed, node, app_id)

    def ap_cache_stats(self) -> dict[str, float]:
        if self.ap_dns is None:
            return {}
        return {
            "dns_queries": float(self.ap_dns.queries_handled),
            "dns_cache_hits": float(self.ap_dns.cache_hits),
        }
