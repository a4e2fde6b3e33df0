"""The Wi-Cache baseline (Chhangte et al., adapted per paper Section V-A).

Wi-Cache routes every cache request through a *centralized controller*
(an EC2 instance 12 hops away in the paper's testbed) that knows which AP
holds which object.  The paper adapted it to small cacheable objects and
kept its LRU cache management.  The adaptation here:

* **Controller** — a UDP lookup service: given a URL hash it answers
  whether the (single) AP caches the object, returning the AP's address
  on a hit and the edge server's address otherwise.
* **Agent** — runs on the AP: serves cached objects over HTTP and, when
  the controller reports a miss, asynchronously fetches-and-caches the
  object (LRU) off the client's critical path, then registers it.
* **Client** — contacts the controller for *every* fetch (Wi-Cache has
  no client-side flag cache), then retrieves from the AP or the edge.

Control-plane registration between agent and controller is modeled as
instantaneous shared state; only data-plane messages pay network latency,
which is what the paper's latency measurements capture.
"""

from __future__ import annotations

import struct
import typing as _t

from repro.errors import TransportError
from repro.cache.entry import CacheEntry
from repro.cache.policies import LruPolicy
from repro.cache.store import CacheStore
from repro.core.annotations import CacheableSpec
from repro.core.client_runtime import FetchResult
from repro.dnslib.cache_rr import CacheFlag, hash_url
from repro.dnslib.server import ForwardingDnsService
from repro.httplib.client import HttpClient, TARGET_IP_HEADER
from repro.httplib.messages import HttpRequest, HttpResponse
from repro.httplib.url import Url
from repro.net.address import IPv4Address
from repro.net.node import Node, TCP_HTTP_PORT
from repro.sim.kernel import MS
from repro.baselines.base import CachingSystem, telemetry_of
from repro.telemetry.registry import NULL, Telemetry
from repro.testbed import Testbed

__all__ = ["WiCacheSystem", "WiCacheController", "WiCacheAgent",
           "WiCacheFetcher", "WICACHE_LOOKUP_PORT"]

WICACHE_LOOKUP_PORT = 5300
_MODE_HEADER = "x-wicache"
_TTL_HEADER = "x-wicache-ttl"
_SERVED_FROM = "x-ape-served-from"  # shared with APE for uniform accounting


class WiCacheController:
    """Centralized lookup: URL hash -> caching AP (if any)."""

    def __init__(self, node: Node, edge_address: IPv4Address) -> None:
        self.node = node
        self.sim = node.sim
        self.edge_address = edge_address
        self._locations: dict[bytes, IPv4Address] = {}
        self.lookups = 0

    def install(self, port: int = WICACHE_LOOKUP_PORT) -> None:
        self.node.bind_udp(port, self._handle)

    def register(self, url_hash: bytes, ap_address: IPv4Address) -> None:
        self._locations[url_hash] = ap_address

    def unregister(self, url_hash: bytes) -> None:
        self._locations.pop(url_hash, None)

    def _handle(self, payload: bytes, _source: IPv4Address,
                ) -> _t.Generator[object, object, bytes]:
        if len(payload) != 16:
            raise TransportError(
                f"Wi-Cache lookup expects a 16-byte hash, got "
                f"{len(payload)}")
        self.lookups += 1
        yield self.node.occupy_cpu(0.05 * MS)
        location = self._locations.get(bytes(payload))
        if location is not None:
            return struct.pack("!B4s", 1, location.to_bytes())
        return struct.pack("!B4s", 0, self.edge_address.to_bytes())


class WiCacheAgent:
    """AP-side cache with LRU management."""

    def __init__(self, bed: Testbed, controller: WiCacheController,
                 cache_capacity_bytes: int,
                 http_service_time_s: float = 0.5 * MS,
                 node: "Node | None" = None,
                 telemetry: "Telemetry | None" = None) -> None:
        self.bed = bed
        self.node = node if node is not None else bed.ap
        self.sim = bed.sim
        self.transport = bed.transport
        self.controller = controller
        self.store = CacheStore(cache_capacity_bytes,
                                telemetry=telemetry_of(bed), tier="ap")
        self.policy = LruPolicy()
        self.http_service_time_s = http_service_time_s
        self.hits_served = 0
        self.background_fills = 0
        # The distributed system hands every agent its own *shard*
        # registry; per-AP fleet.* instruments recorded here roll up
        # into one controller view via Telemetry.merge.  The single-AP
        # system passes nothing and records nothing extra (NULL).
        self.telemetry = telemetry if telemetry is not None else NULL
        self._t_requests = self.telemetry.counter(
            "fleet.requests", "requests served at this AP, by outcome")
        self._t_fetches = self.telemetry.counter(
            "fleet.fetches",
            "client fetches by home AP, by cache outcome")
        self._t_fills = self.telemetry.counter(
            "fleet.fills", "background fetch-and-cache fills")
        self._h_serve = self.telemetry.histogram(
            "fleet.serve_ms", "AP-local serve time for cache hits")
        self._g_used = self.telemetry.gauge(
            "fleet.cache_used_bytes", "bytes cached at this AP")

    def install(self, port: int = TCP_HTTP_PORT) -> None:
        self.node.bind_tcp(port, self._handle)

    def _handle(self, request: object, _source: IPv4Address,
                ) -> _t.Generator[object, object, HttpResponse]:
        if not isinstance(request, HttpRequest):
            raise TransportError(
                f"Wi-Cache agent got a {type(request).__name__}")
        started = self.sim.now
        yield self.node.occupy_cpu(self.http_service_time_s)
        entry = self.store.get(request.url.base, self.sim.now)
        if entry is None:
            self.controller.unregister(hash_url(request.url.base))
            self._t_requests.inc(ap=self.node.name, hit="no")
            return HttpResponse.not_found(request.url)
        self.hits_served += 1
        self._t_requests.inc(ap=self.node.name, hit="yes")
        self._h_serve.observe((self.sim.now - started) * 1e3,
                              ap=self.node.name)
        return HttpResponse(status=200, body=entry.data_object,
                            headers={_SERVED_FROM: "cache"})

    def background_fill(self, url: Url, app_id: str, ttl_s: float,
                        edge_address: IPv4Address) -> None:
        """Fetch-and-cache off the client's critical path."""
        self.sim.process(self._fill(url, app_id, ttl_s, edge_address))

    def _fill(self, url: Url, app_id: str, ttl_s: float,
              edge_address: IPv4Address,
              ) -> _t.Generator[object, object, None]:
        if self.store.get(url.base, self.sim.now) is not None:
            return
        self.background_fills += 1
        started = self.sim.now
        request = HttpRequest(url)
        response = yield self.sim.process(self.transport.tcp_exchange(
            self.node.name, edge_address, TCP_HTTP_PORT, request))
        http_response = _t.cast(HttpResponse, response)
        if not http_response.ok or http_response.body is None:
            return
        fetch_latency = self.sim.now - started
        data_object = http_response.body
        if data_object.size_bytes > self.store.capacity_bytes:
            return
        now = self.sim.now
        entry = CacheEntry(data_object=data_object, app_id=app_id,
                           priority=1, stored_at=now,
                           expires_at=now + ttl_s,
                           fetch_latency_s=fetch_latency)
        result = self.store.admit(entry, self.policy, now)
        if result.admitted:
            for evicted in result.evicted:
                self.controller.unregister(hash_url(evicted.url))
            self.controller.register(hash_url(entry.url),
                                     self.node.address)
            self._t_fills.inc(ap=self.node.name)
            self._g_used.set(float(self.store.used_bytes),
                             ap=self.node.name)


class WiCacheFetcher:
    """Client-side Wi-Cache retrieval."""

    def __init__(self, bed: Testbed, node: Node, app_id: str,
                 agent: WiCacheAgent,
                 controller_address: IPv4Address) -> None:
        self.bed = bed
        self.node = node
        self.sim = node.sim
        self.app_id = app_id
        self.agent = agent
        self.controller_address = controller_address
        self.telemetry = telemetry_of(bed)
        self.http = HttpClient(node, bed.transport,
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
        spec = self._specs.get(parsed.base)

        with self.telemetry.span("request", app=self.app_id,
                                 url=parsed.base) as req:
            lookup_started = self.sim.now
            with self.telemetry.span("controller_lookup", parent=req):
                payload = yield self.sim.process(
                    self.bed.transport.udp_request(
                        self.node.name, self.controller_address,
                        WICACHE_LOOKUP_PORT, hash_url(parsed.base)))
            cached_flag, raw_address = struct.unpack(
                "!B4s", _t.cast(bytes, payload))
            target = IPv4Address.from_bytes(raw_address)
            lookup_latency = self.sim.now - lookup_started

            retrieval_started = self.sim.now
            request = HttpRequest(parsed, headers={
                TARGET_IP_HEADER: str(target)})
            with self.telemetry.span(
                    "ap_hit" if cached_flag else "edge_fetch",
                    parent=req):
                response = yield from self.http.transport_call(request)
                if cached_flag and not response.ok:
                    # Stale controller state: the AP evicted meanwhile.
                    # Fall back to the edge like any miss.
                    cached_flag = 0
                    request = HttpRequest(parsed, headers={
                        TARGET_IP_HEADER: str(self.bed.edge.address)})
                    response = yield from self.http.transport_call(request)
            retrieval_latency = self.sim.now - retrieval_started
            req.set_attr("source",
                         "ap-hit" if cached_flag else "edge")

        if not cached_flag and response.ok and spec is not None:
            self.agent.background_fill(parsed, self.app_id, spec.ttl_s,
                                       self.bed.edge.address)

        result = FetchResult(
            data_object=response.body if response.ok else None,
            source="ap-hit" if cached_flag else "edge",
            flag=CacheFlag.CACHE_HIT if cached_flag
            else CacheFlag.CACHE_MISS,
            lookup_latency_s=lookup_latency,
            retrieval_latency_s=retrieval_latency,
            used_cached_flags=False,
            cache_hit=bool(cached_flag))
        self.fetches += 1
        source = result.source
        self._h_lookup.observe(lookup_latency * 1e3, app=self.app_id)
        self._h_retrieval.observe(retrieval_latency * 1e3,
                                  app=self.app_id, source=source)
        self._h_total.observe(result.total_latency_s * 1e3,
                              app=self.app_id, source=source)
        self._t_fetches.inc(app=self.app_id, source=source,
                            hit="yes" if result.cache_hit else "no")
        # Fleet shard accounting: this client's outcome, attributed to
        # its home AP (no-op for the single-AP system's NULL shard).
        self.agent._t_fetches.inc(
            ap=self.agent.node.name,
            hit="yes" if result.cache_hit else "no")
        return result

    def flush(self) -> None:
        """Wi-Cache keeps no client-side lookup state; nothing to flush."""


class WiCacheSystem(CachingSystem):
    """Controller + LRU AP agent + per-fetch controller lookups."""

    name = "Wi-Cache"

    def __init__(self, cache_capacity_bytes: int = 5 * 1024 * 1024) -> None:
        self.cache_capacity_bytes = cache_capacity_bytes
        self.controller: WiCacheController | None = None
        self.agent: WiCacheAgent | None = None

    def install(self, bed: Testbed) -> None:
        # The AP still provides ordinary DNS for non-cacheable traffic.
        ForwardingDnsService(
            bed.ap, bed.transport,
            bed.ldns.address).bind_telemetry(telemetry_of(bed)).install()
        self.controller = WiCacheController(bed.controller,
                                            bed.edge.address)
        self.controller.install()
        self.agent = WiCacheAgent(bed, self.controller,
                                  self.cache_capacity_bytes)
        self.agent.install()

    def new_fetcher(self, bed: Testbed, node: Node,
                    app_id: str) -> WiCacheFetcher:
        if self.agent is None or self.controller is None:
            raise TransportError("WiCacheSystem.install was not called")
        return WiCacheFetcher(bed, node, app_id, self.agent,
                              self.controller.node.address)

    def ap_cache_stats(self) -> dict[str, float]:
        if self.agent is None:
            return {}
        return {
            "hits_served": float(self.agent.hits_served),
            "background_fills": float(self.agent.background_fills),
            "cache_used_bytes": float(self.agent.store.used_bytes),
            "controller_lookups": float(
                self.controller.lookups if self.controller else 0),
        }
