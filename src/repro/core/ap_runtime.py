"""The AP-side APE-CACHE runtime (the paper's modified dnsmasq).

Extends the stock caching DNS forwarder with:

* **DNS-Cache responses** — queries carrying a DNSCACHE/REQUEST record in
  the Additional section are answered with per-URL flags for every URL the
  AP knows under the queried domain (per-domain batching);
* **dummy-IP short circuit** — when every requested URL is cached, the AP
  skips upstream resolution and answers a dummy IP with TTL 0;
* **an HTTP endpoint** serving cache hits and handling delegations: the
  AP fetches from the edge on the client's behalf, caches the object
  under PACM (or any injected policy), and returns it;
* **block-list** management for objects above the size threshold.
"""

from __future__ import annotations

import math
import typing as _t

from repro.errors import DnsError, HttpError
from repro.cache.entry import CacheEntry
from repro.cache.frequency import RequestFrequencyTracker
from repro.cache.pacm import PacmPolicy
from repro.cache.policies import EvictionPolicy
from repro.cache.store import CacheStore
from repro.core.blocklist import BlockList
from repro.core.config import ApeCacheConfig
from repro.core.prefetch import PREFETCH_HEADER, PrefetchHint, decode_hints
from repro.dnslib.cache_rr import CacheFlag, CacheLookupRdata
from repro.dnslib.message import Message, Rcode
from repro.dnslib.name import DomainName
from repro.dnslib.rr import ResourceRecord, RRClass, RRType
from repro.dnslib.server import ForwardingDnsService
from repro.httplib.content import DataObject
from repro.httplib.messages import HttpRequest, HttpResponse
from repro.httplib.url import Url
from repro.net.address import DUMMY_IP, IPv4Address
from repro.net.node import Node, TCP_HTTP_PORT, UDP_DNS_PORT
from repro.net.transport import Transport
from repro.telemetry.spans import ParentLike, parse_trace_parent

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry import Telemetry

__all__ = ["ApRuntime", "APE_MODE_HEADER", "APE_APP_HEADER",
           "APE_TTL_HEADER", "APE_PRIORITY_HEADER", "SERVED_FROM_HEADER",
           "APE_TRACE_HEADER"]

#: Pseudo-headers of the client<->AP cache protocol.
APE_MODE_HEADER = "x-ape-cache"          # "fetch" | "delegate"
APE_APP_HEADER = "x-ape-app"             # requesting app id
APE_TTL_HEADER = "x-ape-ttl"             # object TTL in seconds
APE_PRIORITY_HEADER = "x-ape-priority"   # developer-assigned priority
#: Trace context ("trace.span") linking the AP's spans under the
#: client's request span.  Shares the x-ape- prefix, so — like the rest
#: of the cache protocol — it is stripped from edge-bound requests.
APE_TRACE_HEADER = "x-ape-trace"
#: Response header telling the client whether the AP answered from its
#: cache ("cache") or had to reach the edge ("edge").
SERVED_FROM_HEADER = "x-ape-served-from"


class ApRuntime(ForwardingDnsService):
    """APE-CACHE's cache management + modified DNS on the access point."""

    def __init__(self, node: Node, transport: Transport,
                 upstream: "IPv4Address | str",
                 config: ApeCacheConfig | None = None,
                 policy: EvictionPolicy | None = None,
                 telemetry: "Telemetry | None" = None) -> None:
        self.config = config or ApeCacheConfig()
        super().__init__(node, transport, upstream,
                         service_time_s=self.config.dns_service_time_s)
        if telemetry is not None:
            self.bind_telemetry(telemetry)
        self.tracker = RequestFrequencyTracker(
            alpha=self.config.frequency_alpha,
            window_s=self.config.frequency_window_s)
        self.policy = policy if policy is not None else PacmPolicy(
            self.tracker,
            fairness_threshold=self.config.fairness_threshold,
            granularity=self.config.knapsack_granularity,
            telemetry=telemetry)
        self.store = CacheStore(self.config.cache_capacity_bytes,
                                telemetry=telemetry, tier="ap")
        self.blocklist = BlockList(self.config.blocklist_threshold_bytes)
        self._h_edge_fetch = self.telemetry.histogram(
            "ap.edge_fetch_ms", help="AP-to-edge retrieval latency (ms)")
        self._t_http = self.telemetry.counter(
            "ap.http_requests", help="cache-endpoint requests, by mode")
        #: DNS-Cache answers by query bytes after the ID, all built at
        #: the store and block-list generations in ``_answers_stamp``.
        self._answers: dict[bytes, ApRuntime._Answer] = {}
        self._answers_stamp = (self.store.generation,
                               self.blocklist.generation)
        # Statistics surfaced by the overhead experiments (Fig. 14).
        self.dns_cache_queries = 0
        self.plain_dns_queries = 0
        self.hits_served = 0
        self.stale_fetches = 0
        self.delegations = 0
        self.edge_fetches = 0
        self.pacm_runs = 0
        self.blocked_objects = 0
        self.prefetches = 0
        self.coalesced_fetches = 0
        #: In-flight edge fetches by base URL, so concurrent delegations
        #: and prefetches for the same object coalesce onto one fetch.
        self._inflight: dict[str, object] = {}

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self, dns_port: int = UDP_DNS_PORT,
                http_port: int = TCP_HTTP_PORT) -> None:
        """Bind the modified DNS and the cache HTTP endpoint."""
        super().install(port=dns_port)
        self.node.bind_tcp(http_port, self._handle_http)

    # ------------------------------------------------------------------
    # Modified DNS (cache lookup piggybacking)
    # ------------------------------------------------------------------
    def _handle(self, payload: bytes, source: IPv4Address,
                ) -> _t.Generator[object, object, bytes]:
        """Plain queries as the forwarder answers them; DNS-Cache queries
        with flags for the requested hashes and the domain's cached URLs.

        A DNS-Cache query whose bytes after the ID repeat one answered
        while its answer holds (see :meth:`_reusable`) is not decoded
        again: an all-hit answer is resent whole with this query's ID,
        any other answer reuses its flags.  Both paths charge the same
        CPU and count the same queries.
        """
        key = payload[2:]
        query = None if key in self._answers else Message.decode(payload)
        self.queries_handled += 1
        self._t_queries.inc(role=self.role)
        yield self.node.occupy_cpu(self.service_time_s)
        if query is not None and \
                query.cache_lookup(RRClass.REQUEST) is None:
            self.plain_dns_queries += 1
            response = yield from self._respond_or_fail(query, source)
            return response.encode()

        self.dns_cache_queries += 1
        # The DNS-Cache search costs a little extra CPU beyond a plain
        # DNS lookup (this is what Fig. 11b quantifies as +0.02 ms).
        yield self.node.occupy_cpu(self.config.dns_cache_extra_cpu_s)
        answer = self._reusable(key)
        if answer is not None and answer.wire is not None:
            return payload[:2] + answer.wire[2:]
        if query is None:
            query = Message.decode(payload)
        domain = query.question_name()
        if answer is None:
            lookup = _t.cast(CacheLookupRdata,
                             query.cache_lookup(RRClass.REQUEST))
            answer = self._answers[key] = self._build_flags(lookup, domain)

        short_circuit = answer.all_hit and \
            self.config.enable_dummy_ip_short_circuit
        if short_circuit:
            # No upstream resolution; dummy IP, TTL 0.
            response = query.make_response()
            response.answers.append(ResourceRecord(
                domain, RRType.A, RRClass.IN,
                self.config.dummy_answer_ttl_s, DUMMY_IP))
        else:
            try:
                response = yield from self.respond(query, source)
            except DnsError:
                response = query.make_response(Rcode.SERVFAIL)
        response.attach_cache_lookup(answer.rdata, RRClass.RESPONSE)
        wire = response.encode()
        if short_circuit:
            answer.wire = wire
        return wire

    class _Answer:
        """The flags one DNS-Cache query was answered with.

        ``valid_until`` is the earliest expiry among the fresh entries
        the flags were read from; ``wire`` is the whole all-hit response
        once it has been sent.
        """

        __slots__ = ("rdata", "all_hit", "valid_until", "wire")

        def __init__(self, rdata: CacheLookupRdata, all_hit: bool,
                     valid_until: float) -> None:
            self.rdata = rdata
            self.all_hit = all_hit
            self.valid_until = valid_until
            self.wire: bytes | None = None

    def _reusable(self, key: bytes) -> "_Answer | None":
        """The answer to the query ``key`` (its bytes after the ID), if
        building it again now would give the same flags.

        It would unless the store or the block list changed since (their
        generations), or an entry it read has expired (``valid_until``).
        A change drops every answer, so at most the query shapes seen
        since the last change are held.
        """
        stamp = (self.store.generation, self.blocklist.generation)
        if stamp != self._answers_stamp:
            self._answers.clear()
            self._answers_stamp = stamp
            return None
        answer = self._answers.get(key)
        if answer is not None and self.sim.now >= answer.valid_until:
            del self._answers[key]
            return None
        return answer

    def _build_flags(self, lookup: CacheLookupRdata,
                     domain: DomainName) -> "_Answer":
        """Flags for every requested hash, plus every cached same-domain
        URL the client did not ask about (per-domain batching)."""
        now = self.sim.now
        flags: dict[bytes, CacheFlag] = {}
        valid_until = math.inf
        all_hit = len(lookup) > 0
        for url_hash in lookup.flags:
            flag = self._flag_for_hash(url_hash, now)
            if flag == CacheFlag.CACHE_HIT:
                valid_until = min(valid_until, _t.cast(
                    CacheEntry, self.store.peek_hash(url_hash)).expires_at)
            else:
                all_hit = False
            flags[url_hash] = flag
        for cached in self.store.in_domain(domain).values():
            if cached.is_expired(now):
                continue
            valid_until = min(valid_until, cached.expires_at)
            if cached.url_hash not in flags:
                flags[cached.url_hash] = CacheFlag.CACHE_HIT
        return self._Answer(CacheLookupRdata(flags), all_hit, valid_until)

    def _flag_for_hash(self, url_hash: bytes, now: float) -> CacheFlag:
        if self.blocklist.is_blocked_hash(url_hash):
            return CacheFlag.CACHE_MISS
        entry = self.store.peek_hash(url_hash)
        if entry is not None and not entry.is_expired(now):
            return CacheFlag.CACHE_HIT
        # Unknown hash, or known-but-expired: the AP offers to delegate.
        return CacheFlag.DELEGATION

    # ------------------------------------------------------------------
    # HTTP endpoint: cache fetch + delegation
    # ------------------------------------------------------------------
    def _handle_http(self, request: object, source: IPv4Address,
                     ) -> _t.Generator[object, object, HttpResponse]:
        if not isinstance(request, HttpRequest):
            raise HttpError(f"AP got a {type(request).__name__}")
        yield self.node.occupy_cpu(self.config.http_service_time_s)
        mode = request.header(APE_MODE_HEADER)
        app_id = request.header(APE_APP_HEADER, "unknown-app")
        self.tracker.observe(app_id, self.sim.now)
        self._t_http.inc(mode=mode or "unknown", app=app_id)
        link = parse_trace_parent(request.header(APE_TRACE_HEADER))
        with self.telemetry.span("ap.request", parent=link,
                                 mode=mode or "unknown",
                                 app=app_id) as span:
            if mode == "fetch":
                response = yield from self._serve_fetch(
                    request, app_id, parent=span)
            elif mode == "delegate":
                response = yield from self._serve_delegation(
                    request, app_id, parent=span)
            else:
                raise HttpError(f"unknown APE mode {mode!r}")
            span.set_attr("served_from",
                          response.header(SERVED_FROM_HEADER, "none"))
        return response

    def _count_cache_hit(self) -> None:
        """Single owner of the hit counter.

        Both serving paths (fetch and delegation) count hits through
        this synchronous helper; keeping the write out of the process
        generators themselves means no scheduler interleaving can sit
        between the read and the increment.
        """
        self.hits_served += 1

    def _serve_fetch(self, request: HttpRequest, app_id: str,
                     parent: ParentLike = None,
                     ) -> _t.Generator[object, object, HttpResponse]:
        entry = self.store.get(request.url, self.sim.now)
        if entry is not None:
            self._count_cache_hit()
            return HttpResponse(status=200, body=entry.data_object,
                                headers={SERVED_FROM_HEADER: "cache"})
        # The client's flag table was stale; behave like a delegation so
        # the request still succeeds in one round trip.
        self.stale_fetches += 1
        response = yield from self._serve_delegation(request, app_id,
                                                     parent=parent)
        return response

    def _serve_delegation(self, request: HttpRequest, app_id: str,
                          parent: ParentLike = None,
                          ) -> _t.Generator[object, object, HttpResponse]:
        self.delegations += 1
        base = request.url.base
        entry = self.store.get(request.url, self.sim.now)
        if entry is not None:
            # Someone else delegated this URL first; serve the copy.
            self._count_cache_hit()
            return HttpResponse(status=200, body=entry.data_object,
                                headers={SERVED_FROM_HEADER: "cache"})

        encoded_hints = request.header(PREFETCH_HEADER)
        if encoded_hints and self.config.enable_prefetch:
            self.sim.process(self._prefetch(decode_hints(encoded_hints),
                                            app_id))

        # Coalesce onto an in-flight fetch (another client's delegation
        # or a prefetch) instead of hitting the edge twice.
        pending = self._inflight.get(base)
        if pending is not None:
            self.coalesced_fetches += 1
            yield pending
            entry = self.store.get(request.url, self.sim.now)
            if entry is not None:
                return HttpResponse(status=200, body=entry.data_object,
                                    headers={SERVED_FROM_HEADER: "edge"})

        ttl_s = float(request.header(APE_TTL_HEADER, "600"))
        priority = int(request.header(APE_PRIORITY_HEADER, "1"))
        response = yield from self._fetch_admit_coalesced(
            request, app_id, priority, ttl_s, parent=parent)
        return response

    def _fetch_admit_coalesced(self, request: HttpRequest, app_id: str,
                               priority: int, ttl_s: float,
                               parent: ParentLike = None,
                               ) -> _t.Generator[object, object,
                                                 HttpResponse]:
        """Fetch from the edge, cache the result, publish completion."""
        base = request.url.base
        gate = self.sim.event()
        self._inflight[base] = gate
        try:
            response = yield from self._fetch_from_edge(request,
                                                        parent=parent)
            if not response.ok or response.body is None:
                return response
            data_object = response.body
            if self.blocklist.should_block(data_object.size_bytes):
                self.blocklist.block(base)
                self.blocked_objects += 1
                return response
            yield from self._admit(data_object, app_id, priority, ttl_s,
                                   fetch_latency_s=self._last_edge_latency,
                                   parent=parent)
            return response
        finally:
            if self._inflight.get(base) is gate:
                del self._inflight[base]
            gate.succeed()

    def _prefetch(self, hints: list[PrefetchHint], app_id: str,
                  ) -> _t.Generator[object, object, None]:
        """Fetch-and-cache hinted dependents off the critical path.

        Hinted objects fetch concurrently (one process each), skipping
        anything cached, blocked, or already in flight.
        """
        processes = []
        for hint in hints:
            if self.store.get(hint.url, self.sim.now) is not None:
                continue
            if self.blocklist.is_blocked(hint.url):
                continue
            if hint.url in self._inflight:
                continue
            self.prefetches += 1
            processes.append(self.sim.process(
                self._prefetch_one(hint, app_id)))
        if processes:
            yield self.sim.all_of(processes)

    def _prefetch_one(self, hint: PrefetchHint, app_id: str,
                      ) -> _t.Generator[object, object, None]:
        yield self.node.occupy_cpu(self.config.http_service_time_s)
        try:
            yield from self._fetch_admit_coalesced(
                HttpRequest(Url.parse(hint.url)), app_id,
                hint.priority, hint.ttl_s)
        except (DnsError, HttpError):
            # Prefetching is best-effort: upstream failures are not
            # allowed to take the AP daemon down.
            pass

    def _fetch_from_edge(self, request: HttpRequest,
                         parent: ParentLike = None,
                         ) -> _t.Generator[object, object, HttpResponse]:
        """Resolve the object's domain and fetch it from the edge tier."""
        self.edge_fetches += 1
        domain = request.url.domain
        with self.telemetry.span("ap.edge_fetch", parent=parent,
                                 url=request.url.base):
            address = yield from self._resolve_for_delegation(domain)
            started = self.sim.now
            outbound = HttpRequest(request.url, headers={
                key: value for key, value in request.headers.items()
                if not key.startswith("x-ape-")})
            response = yield self.sim.process(self.transport.tcp_exchange(
                self.node.name, address, TCP_HTTP_PORT, outbound))
            self._last_edge_latency = self.sim.now - started
        self._h_edge_fetch.observe(self._last_edge_latency * 1e3)
        return _t.cast(HttpResponse, response)

    _last_edge_latency: float = 0.0

    def _resolve_for_delegation(self, domain: DomainName,
                                ) -> _t.Generator[object, object,
                                                  IPv4Address]:
        cached = self.cached_answers(domain, RRType.A)
        records = cached
        if records is None:
            upstream_response = yield from self.forward(
                Message.query(domain, RRType.A))
            if upstream_response.header.rcode != Rcode.NOERROR:
                raise DnsError(
                    f"cannot resolve {domain} for delegation "
                    f"({upstream_response.header.rcode.name})")
            records = upstream_response.answers
        for record in records:
            if record.rtype == RRType.A:
                return _t.cast(IPv4Address, record.rdata)
        raise DnsError(f"no A record for {domain}")

    def _admit(self, data_object: DataObject, app_id: str, priority: int,
               ttl_s: float, fetch_latency_s: float,
               parent: ParentLike = None,
               ) -> _t.Generator[object, object, None]:
        now = self.sim.now
        entry = CacheEntry(
            data_object=data_object,
            app_id=app_id, priority=priority, stored_at=now,
            expires_at=now + ttl_s,
            fetch_latency_s=max(fetch_latency_s, 0.0))
        with self.telemetry.span("ap.pacm_admit", parent=parent,
                                 app=app_id) as span:
            if entry.size_bytes > self.store.free_bytes:
                # Victim selection is the expensive PACM step.
                self.pacm_runs += 1
                yield self.node.occupy_cpu(self.config.pacm_cpu_s)
            admission = self.store.admit(entry, self.policy, now)
            span.set_attr("admitted", admission.admitted)
            span.set_attr("evicted", len(admission.evicted))

    # ------------------------------------------------------------------
    # Introspection used by experiments
    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Extra AP memory attributable to APE-CACHE right now.

        Cached payload bytes plus per-entry/table overheads; used by the
        Fig. 14 resource model.
        """
        per_entry_overhead = 96
        per_hash_overhead = 56
        # One URL hash per stored entry, plus the blocked ones.
        return (self.store.used_bytes +
                len(self.store) * (per_entry_overhead + per_hash_overhead) +
                len(self.blocklist) * per_hash_overhead)
