"""The client-side APE-CACHE runtime (the paper's modified OkHttp/c-ares).

Responsibilities:

* keep the registry of cacheable objects declared via annotations;
* perform **DNS-Cache lookups**: one modified DNS query per domain
  carrying the hashes of every cacheable URL under that domain (per-domain
  batching), caching the returned flags for the answer's TTL;
* dispatch each fetch on the returned flag — AP hit, edge fetch, or
  delegation — exactly as Fig. 7 describes;
* expose an :class:`~repro.httplib.client.Interceptor` so unmodified app
  code using the HTTP client transparently gains AP caching.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.errors import ConfigError, TransportError
from repro.cache.entry import CacheEntry
from repro.cache.policies import LruPolicy
from repro.cache.store import CacheStore
from repro.core.annotations import CacheableSpec, scan_cacheables
from repro.core.ap_runtime import (
    APE_APP_HEADER,
    APE_MODE_HEADER,
    APE_PRIORITY_HEADER,
    APE_TRACE_HEADER,
    APE_TTL_HEADER,
    SERVED_FROM_HEADER,
)
from repro.core.prefetch import PREFETCH_HEADER, PrefetchHint, encode_hints
from repro.dnslib.cache_rr import CacheFlag, CacheLookupRdata
from repro.dnslib.message import Message, Rcode
from repro.dnslib.resolver import StubResolver
from repro.dnslib.rr import RRClass, RRType
from repro.httplib.client import HttpClient, Interceptor, TARGET_IP_HEADER
from repro.httplib.content import DataObject
from repro.httplib.messages import HttpRequest, HttpResponse
from repro.httplib.url import Url
from repro.net.address import DUMMY_IP, IPv4Address
from repro.net.node import Node
from repro.net.transport import Transport
from repro.telemetry.registry import NULL
from repro.telemetry.spans import Span, format_trace_parent

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry import Telemetry

__all__ = ["ClientRuntime", "FetchResult", "ApeCacheInterceptor"]


@dataclasses.dataclass
class FetchResult:
    """Outcome of fetching one cacheable object through APE-CACHE."""

    data_object: DataObject | None
    source: str                   # "ap-hit" | "ap-delegated" | "edge"
    flag: CacheFlag
    lookup_latency_s: float
    retrieval_latency_s: float
    used_cached_flags: bool
    #: Whether the object was served out of the AP's cache memory (the
    #: paper's cache-hit definition for the hit-ratio experiments).
    cache_hit: bool = False

    @property
    def total_latency_s(self) -> float:
        return self.lookup_latency_s + self.retrieval_latency_s


class _DomainFlags:
    """Cached DNS-Cache state for one domain."""

    def __init__(self, flags: dict[bytes, CacheFlag],
                 address: IPv4Address, expires_at: float) -> None:
        self.flags = flags
        self.address = address
        self.expires_at = expires_at

    def fresh(self, now: float) -> bool:
        return now < self.expires_at


class ClientRuntime:
    """Per-device APE-CACHE client library."""

    def __init__(self, node: Node, transport: Transport,
                 ap_address: "IPv4Address | str",
                 app_id: str = "app",
                 device_cache_bytes: int = 0,
                 telemetry: "Telemetry | None" = None) -> None:
        """``device_cache_bytes`` > 0 adds an on-device L1 cache in
        front of the AP (the PALOMA/Marauder-style client-side layer
        the paper's related work discusses); 0 — the paper's default —
        disables it."""
        self.node = node
        self.sim = node.sim
        self.transport = transport
        self.ap_address = IPv4Address(ap_address)
        self.app_id = app_id
        self.telemetry: "Telemetry" = (telemetry if telemetry is not None
                                       else NULL)
        self.resolver = StubResolver(node, transport, self.ap_address,
                                     telemetry=telemetry)
        self.http = HttpClient(node, transport, self.resolver,
                               telemetry=telemetry)
        self._specs: dict[str, CacheableSpec] = {}
        #: Each looked-up domain's DNS-Cache query, encoded with ID 0;
        #: dropped when a spec is added under the domain.
        self._queries: dict[str, bytes] = {}
        self._domain_flags: dict[str, _DomainFlags] = {}
        self._dependents: dict[str, list[PrefetchHint]] = {}
        self.device_cache: CacheStore | None = (
            CacheStore(device_cache_bytes, telemetry=telemetry,
                       tier="device") if device_cache_bytes > 0
            else None)
        self._device_policy = LruPolicy()
        self.device_hits = 0
        self.fetches = 0
        self.ap_hits = 0
        self.dns_cache_queries = 0
        self.flag_table_hits = 0
        self._h_lookup = self.telemetry.histogram(
            "client.lookup_ms", help="cache-lookup stage latency (ms)")
        self._h_retrieval = self.telemetry.histogram(
            "client.retrieval_ms",
            help="cache-retrieval stage latency (ms), by source")
        self._h_total = self.telemetry.histogram(
            "client.total_ms", help="end-to-end fetch latency (ms)")
        self._t_fetches = self.telemetry.counter(
            "client.fetches", help="fetches by app, source, and hit")

    # ------------------------------------------------------------------
    # Programming-model integration
    # ------------------------------------------------------------------
    def register(self, target: "object | type") -> list[CacheableSpec]:
        """Scan ``target`` for :func:`cacheable` fields and register them."""
        specs = scan_cacheables(target)
        for spec in specs:
            self.register_spec(spec)
        return specs

    def register_spec(self, spec: CacheableSpec) -> None:
        existing = self._specs.get(spec.base_url)
        if existing is not None and existing != spec:
            raise ConfigError(
                f"conflicting cacheable declarations for {spec.base_url}")
        if existing is None:
            self._specs[spec.base_url] = spec
            self._queries.pop(spec.domain, None)

    def spec_for(self, url: "Url | str") -> CacheableSpec | None:
        base = Url.parse(url).base if isinstance(url, str) else url.base
        return self._specs.get(base)

    def specs_for_domain(self, domain: str) -> list[CacheableSpec]:
        return [spec for spec in self._specs.values()
                if spec.domain == domain.lower()]

    def register_dependencies(
            self, dependents_of: dict[str, list[CacheableSpec]]) -> None:
        """Declare which objects typically follow which (prefetching).

        ``dependents_of`` maps a parent's base URL to the specs fetched
        right after it in the app's DAG.  When the AP's prefetching
        extension is enabled, delegations for the parent carry these as
        hints so the AP can warm the dependents off the critical path.
        """
        for parent_url, specs in dependents_of.items():
            base = Url.parse(parent_url).base
            self._dependents[base] = [PrefetchHint.from_spec(spec)
                                      for spec in specs]

    def install_interceptor(self) -> None:
        """Make the plain HTTP client APE-aware (zero app-logic change)."""
        self.http.add_interceptor(ApeCacheInterceptor(self))

    # ------------------------------------------------------------------
    # Cache lookup (DNS-Cache piggybacking)
    # ------------------------------------------------------------------
    def lookup(self, domain: str,
               ) -> _t.Generator[object, object, _DomainFlags]:
        """Current flags for ``domain``, via cached state or a DNS-Cache
        query batching every registered URL under the domain."""
        state = self._domain_flags.get(domain)
        if state is not None and state.fresh(self.sim.now):
            self.flag_table_hits += 1
            return state
        self._domain_flags.pop(domain, None)

        message_id = self.resolver.next_message_id()
        query = message_id.to_bytes(2, "big") + self._query(domain)[2:]
        self.dns_cache_queries += 1
        response = yield from self.resolver.exchange(query)

        lookup = response.cache_lookup(RRClass.RESPONSE)
        # The decoded message is this lookup's own, and so is its dict.
        flags = lookup.flags if lookup is not None else {}
        a_record = response.first_answer(RRType.A)
        if a_record is None or response.header.rcode != Rcode.NOERROR:
            raise TransportError(
                f"DNS-Cache lookup for {domain} failed "
                f"(rcode={response.header.rcode.name})")
        address = _t.cast(IPv4Address, a_record.rdata)
        ttl = min(record.ttl for record in response.answers)
        state = _DomainFlags(flags, address, self.sim.now + ttl)
        if ttl > 0:
            self._domain_flags[domain] = state
            self.resolver.cache_response(domain, response)
        return state

    def _query(self, domain: str) -> bytes:
        """The DNS-Cache query for ``domain`` with ID 0: every registered
        URL under it, asking for its flag."""
        key = domain.lower()
        wire = self._queries.get(key)
        if wire is None:
            query = Message.query(domain, RRType.A)
            rdata = CacheLookupRdata()
            for spec in self.specs_for_domain(domain):
                rdata.add(spec.url_hash, CacheFlag.REQUEST)
            query.attach_cache_lookup(rdata, RRClass.REQUEST)
            wire = self._queries[key] = query.encode()
        return wire

    # ------------------------------------------------------------------
    # Fetching (Fig. 7's cache retrieval stage)
    # ------------------------------------------------------------------
    def fetch(self, url: "Url | str",
              ) -> _t.Generator[object, object, FetchResult]:
        """Fetch one cacheable object through the APE-CACHE workflow."""
        parsed = Url.parse(url) if isinstance(url, str) else url
        spec = self.spec_for(parsed)
        if spec is None:
            raise ConfigError(
                f"{parsed.base} is not a registered cacheable object")

        with self.telemetry.span("request", app=self.app_id,
                                 url=parsed.base) as req:
            if self.device_cache is not None:
                local = self.device_cache.get(parsed, self.sim.now)
                if local is not None:
                    self.device_hits += 1
                    req.set_attr("source", "device-hit")
                    result = FetchResult(
                        data_object=local.data_object, source="device-hit",
                        flag=CacheFlag.CACHE_HIT, lookup_latency_s=0.0,
                        retrieval_latency_s=0.0, used_cached_flags=True,
                        cache_hit=True)
                    self._record(result)
                    return result

            lookup_started = self.sim.now
            had_fresh_flags = (domain_state := self._domain_flags.get(
                parsed.host)) is not None and \
                domain_state.fresh(self.sim.now)
            with self.telemetry.span("dns_piggyback", parent=req,
                                     domain=parsed.host) as dns_span:
                state = yield from self.lookup(parsed.host)
                dns_span.set_attr("cached_flags", had_fresh_flags)
            lookup_latency = self.sim.now - lookup_started

            flag = state.flags.get(spec.url_hash, CacheFlag.DELEGATION)
            retrieval_started = self.sim.now
            if flag == CacheFlag.CACHE_HIT:
                with self.telemetry.span("ap_hit", parent=req) as stage:
                    response = yield from self._fetch_from_ap(
                        parsed, mode="fetch", spec=spec, parent=stage)
                source = "ap-hit"
            elif flag == CacheFlag.CACHE_MISS:
                with self.telemetry.span("edge_fetch", parent=req):
                    response = yield from self._fetch_from_edge(parsed,
                                                                state)
                source = "edge"
            else:
                with self.telemetry.span("ap_delegated",
                                         parent=req) as stage:
                    response = yield from self._fetch_from_ap(
                        parsed, mode="delegate", spec=spec, parent=stage)
                source = "ap-delegated"
                # The AP now holds the object; upgrade the local flag so
                # later requests inside the flag TTL go down the hit path.
                if response.ok and response.body is not None:
                    state.flags[spec.url_hash] = CacheFlag.CACHE_HIT
            retrieval_latency = self.sim.now - retrieval_started
            req.set_attr("source", source)

            result = FetchResult(
                data_object=response.body if response.ok else None,
                source=source, flag=flag,
                lookup_latency_s=lookup_latency,
                retrieval_latency_s=retrieval_latency,
                used_cached_flags=had_fresh_flags,
                cache_hit=response.header(SERVED_FROM_HEADER) == "cache")
        if self.device_cache is not None and result.data_object is not \
                None and result.data_object.size_bytes <= \
                self.device_cache.capacity_bytes:
            self.device_cache.admit(
                CacheEntry(result.data_object, app_id=self.app_id,
                           priority=spec.priority, stored_at=self.sim.now,
                           expires_at=self.sim.now + spec.ttl_s,
                           fetch_latency_s=result.total_latency_s),
                self._device_policy, self.sim.now)
        self._record(result)
        return result

    def _fetch_from_ap(self, url: Url, mode: str, spec: CacheableSpec,
                       parent: "Span | None" = None,
                       ) -> _t.Generator[object, object, HttpResponse]:
        headers = {
            APE_MODE_HEADER: mode,
            APE_APP_HEADER: self.app_id,
            APE_TTL_HEADER: str(spec.ttl_s),
            APE_PRIORITY_HEADER: str(spec.priority),
            TARGET_IP_HEADER: str(self.ap_address),
        }
        if parent is not None and self.telemetry.enabled:
            # Links the AP's spans under this stage (zero wire cost; see
            # ZERO_COST_HEADERS in httplib.messages).
            headers[APE_TRACE_HEADER] = format_trace_parent(parent)
        request = HttpRequest(url, headers=headers)
        if mode == "delegate":
            hints = self._dependents.get(url.base)
            if hints:
                request = request.with_header(PREFETCH_HEADER,
                                              encode_hints(hints))
        response = yield from self.http.transport_call(request)
        return response

    def _fetch_from_edge(self, url: Url, state: _DomainFlags,
                         ) -> _t.Generator[object, object, HttpResponse]:
        if state.address == DUMMY_IP:
            raise TransportError(
                f"protocol violation: Cache-Miss for {url.base} alongside "
                "a dummy IP (the AP only short-circuits when all URLs hit)")
        request = HttpRequest(url, headers={
            TARGET_IP_HEADER: str(state.address)})
        response = yield from self.http.transport_call(request)
        return response

    def _record(self, result: FetchResult) -> None:
        self.fetches += 1
        if result.source == "ap-hit":
            self.ap_hits += 1
        self._h_lookup.observe(result.lookup_latency_s * 1e3,
                               app=self.app_id)
        self._h_retrieval.observe(result.retrieval_latency_s * 1e3,
                                  app=self.app_id, source=result.source)
        self._h_total.observe(result.total_latency_s * 1e3,
                              app=self.app_id, source=result.source)
        self._t_fetches.inc(app=self.app_id, source=result.source,
                            hit="yes" if result.cache_hit else "no")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def hit_ratio(self) -> float:
        """Fraction of fetches served from the AP's cache."""
        return self.ap_hits / self.fetches if self.fetches else 0.0

    def flush(self) -> None:
        self._domain_flags.clear()
        self.resolver.flush_cache()


class ApeCacheInterceptor(Interceptor):
    """Routes matching requests through the APE-CACHE fetch workflow.

    Installed on the plain HTTP client, it makes the paper's "no changes
    to the application logic" claim literal: app code keeps calling
    ``client.get(url)``.
    """

    def __init__(self, runtime: ClientRuntime) -> None:
        self.runtime = runtime

    def intercept(self, chain, request: HttpRequest,
                  ) -> _t.Generator[object, object, HttpResponse]:
        if request.header(APE_MODE_HEADER) is not None or \
                request.header(TARGET_IP_HEADER) is not None:
            # Internal traffic of the runtime itself: pass through.
            response = yield from chain.proceed(request)
            return response
        if self.runtime.spec_for(request.url) is None:
            response = yield from chain.proceed(request)
            return response
        result = yield from self.runtime.fetch(request.url)
        if result.data_object is None:
            return HttpResponse.not_found(request.url)
        return HttpResponse(status=200, body=result.data_object)
