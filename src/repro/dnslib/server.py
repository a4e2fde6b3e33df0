"""DNS server roles: authoritative, CDN, recursive (LDNS), forwarder.

Each service installs a UDP handler on its node; handlers are generators
so every query consumes simulated CPU time and any upstream round trips
unfold inside the event loop.  The roles mirror the resolution chain of
the paper's Fig. 1: stub -> LDNS -> authoritative -> CDN DNS.
"""

from __future__ import annotations

import typing as _t

from repro.errors import DnsError, DnsNameError, DnsServFail
from repro.dnslib.message import Message, Rcode
from repro.dnslib.name import DomainName
from repro.dnslib.rr import ResourceRecord, RRClass, RRType
from repro.dnslib.zone import DnsRegistry, Zone
from repro.net.address import IPv4Address
from repro.net.node import Node, UDP_DNS_PORT
from repro.net.transport import Transport
from repro.engine.api import MS
from repro.telemetry.registry import NULL

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry import Telemetry

__all__ = [
    "DnsService",
    "AuthoritativeService",
    "CdnDnsService",
    "RecursiveResolverService",
    "ForwardingDnsService",
    "DnsCacheEntry",
]

#: Default CPU time to parse + answer one query on a server-class machine.
DEFAULT_SERVICE_TIME = 0.05 * MS


class DnsCacheEntry:
    """A cached record set with an absolute expiry time."""

    def __init__(self, records: list[ResourceRecord], expires_at: float,
                 rcode: Rcode = Rcode.NOERROR) -> None:
        self.records = records
        self.expires_at = expires_at
        self.rcode = rcode

    def fresh(self, now: float) -> bool:
        return now < self.expires_at

    def remaining_ttl(self, now: float) -> int:
        return max(0, int(self.expires_at - now))


class DnsService:
    """Base class wiring a message handler onto a node's UDP port 53."""

    #: Label identifying this service's place in the resolution chain.
    role = "dns"

    def __init__(self, node: Node, service_time_s: float =
                 DEFAULT_SERVICE_TIME) -> None:
        self.node = node
        self.sim = node.sim
        self.service_time_s = service_time_s
        self.queries_handled = 0
        self.telemetry: "Telemetry" = NULL
        self._t_queries = NULL.counter("dns.queries")

    def bind_telemetry(self, telemetry: "Telemetry") -> "DnsService":
        """Route this service's instruments into ``telemetry``.

        A post-construction hook (rather than a constructor argument) so
        the half-dozen subclass signatures stay untouched; returns self
        for chaining at construction sites.
        """
        self.telemetry = telemetry
        self._t_queries = telemetry.counter(
            "dns.queries", help="DNS queries handled, by server role")
        return self

    def install(self, port: int = UDP_DNS_PORT) -> None:
        """Bind this service to ``port`` on its node."""
        self.node.bind_udp(port, self._handle)

    def _handle(self, payload: bytes, source: IPv4Address,
                ) -> _t.Generator[object, object, bytes]:
        query = Message.decode(payload)
        self.queries_handled += 1
        self._t_queries.inc(role=self.role)
        yield self.node.occupy_cpu(self.service_time_s)
        response = yield from self._respond_or_fail(query, source)
        return response.encode()

    def _respond_or_fail(self, query: Message, source: IPv4Address,
                         ) -> _t.Generator[object, object, Message]:
        """:meth:`respond`, answering NXDOMAIN or SERVFAIL on errors."""
        try:
            response = yield from self.respond(query, source)
        except DnsNameError:
            response = query.make_response(Rcode.NXDOMAIN)
        except DnsError:
            response = query.make_response(Rcode.SERVFAIL)
        return response

    def respond(self, query: Message, source: IPv4Address,
                ) -> _t.Generator[object, object, Message]:
        """Produce the response message (may yield simulation events)."""
        raise NotImplementedError
        yield  # pragma: no cover - makes this a generator for subclass parity


class AuthoritativeService(DnsService):
    """Serves one or more zones it owns (the paper's ADNS)."""

    role = "authoritative"

    def __init__(self, node: Node, zones: _t.Sequence[Zone] | None = None,
                 service_time_s: float = DEFAULT_SERVICE_TIME) -> None:
        super().__init__(node, service_time_s)
        self.zones: list[Zone] = list(zones or [])

    def add_zone(self, zone: Zone) -> Zone:
        self.zones.append(zone)
        return zone

    def zone_for(self, name: DomainName) -> Zone:
        best: Zone | None = None
        for zone in self.zones:
            if zone.contains(name) and (
                    best is None or
                    len(zone.origin.labels) > len(best.origin.labels)):
                best = zone
        if best is None:
            raise DnsNameError(f"not authoritative for {name}")
        return best

    def respond(self, query: Message, source: IPv4Address,
                ) -> _t.Generator[object, object, Message]:
        name = query.question_name()
        qtype = query.questions[0].qtype
        zone = self.zone_for(name)
        records = zone.lookup(name, qtype)
        response = query.make_response()
        response.header.authoritative = True
        response.answers.extend(records)
        # Chase in-zone CNAMEs so the resolver gets the full chain when
        # the target happens to live in the same zone.
        chased = records
        while chased and chased[0].rtype == RRType.CNAME and \
                qtype != RRType.CNAME:
            target = _t.cast(DomainName, chased[0].rdata)
            try:
                chased = self.zone_for(target).lookup(target, qtype)
            except DnsError:
                break
            response.answers.extend(chased)
        return response
        yield  # pragma: no cover - no async work, kept for interface parity


class CdnDnsService(DnsService):
    """A CDN's DNS (the paper's "Akamai DNS").

    Resolves names under the CDN's domain (e.g. ``*.edgekey.net``) to the
    PoP nearest the *querying resolver* — real CDNs map on the LDNS
    address, which is why a remote LDNS can pick a suboptimal PoP.  When
    no PoP serves the querying region (the paper's Yahoo/São Paulo case),
    it answers with the origin server's address instead.
    """

    role = "cdn"

    def __init__(self, node: Node, cdn_domain: "DomainName | str",
                 pop_selector: _t.Callable[[DomainName, IPv4Address],
                                           IPv4Address | None],
                 origin_for: _t.Callable[[DomainName], IPv4Address],
                 answer_ttl: int = 20,
                 service_time_s: float = DEFAULT_SERVICE_TIME) -> None:
        super().__init__(node, service_time_s)
        self.cdn_domain = DomainName(cdn_domain)
        self._pop_selector = pop_selector
        self._origin_for = origin_for
        self.answer_ttl = answer_ttl

    def respond(self, query: Message, source: IPv4Address,
                ) -> _t.Generator[object, object, Message]:
        name = query.question_name()
        if not name.is_subdomain_of(self.cdn_domain):
            raise DnsNameError(f"{name} is outside CDN domain")
        pop = self._pop_selector(name, source)
        address = pop if pop is not None else self._origin_for(name)
        response = query.make_response()
        response.header.authoritative = True
        response.answers.append(ResourceRecord(
            name, RRType.A, RRClass.IN, self.answer_ttl, address))
        return response
        yield  # pragma: no cover


class RecursiveResolverService(DnsService):
    """A caching recursive resolver (the paper's LDNS).

    Follows CNAME chains across authorities using the registry, caches
    answers by their minimum TTL, and negative-caches NXDOMAIN.
    """

    role = "ldns"
    MAX_CHAIN = 8

    def __init__(self, node: Node, transport: Transport,
                 registry: DnsRegistry,
                 service_time_s: float = DEFAULT_SERVICE_TIME,
                 negative_ttl: int = 30) -> None:
        super().__init__(node, service_time_s)
        self.transport = transport
        self.registry = registry
        self.negative_ttl = negative_ttl
        self._cache: dict[tuple[DomainName, RRType], DnsCacheEntry] = {}
        self.cache_hits = 0
        self.cache_misses = 0

    # -- cache ----------------------------------------------------------
    def cache_get(self, name: DomainName, rtype: RRType,
                  ) -> DnsCacheEntry | None:
        entry = self._cache.get((name, rtype))
        if entry is not None and entry.fresh(self.sim.now):
            return entry
        self._cache.pop((name, rtype), None)
        return None

    def cache_put(self, name: DomainName, rtype: RRType,
                  records: list[ResourceRecord],
                  rcode: Rcode = Rcode.NOERROR) -> None:
        ttl = min((record.ttl for record in records),
                  default=self.negative_ttl)
        self._cache[(name, rtype)] = DnsCacheEntry(
            records, self.sim.now + ttl, rcode)

    def flush_cache(self) -> None:
        self._cache.clear()

    # -- resolution ------------------------------------------------------
    def resolve(self, name: DomainName, rtype: RRType = RRType.A,
                ) -> _t.Generator[object, object, list[ResourceRecord]]:
        """Resolve ``name`` fully, returning the accumulated answer chain."""
        answers: list[ResourceRecord] = []
        current = name
        for _hop in range(self.MAX_CHAIN):
            cached = self.cache_get(current, rtype)
            if cached is not None:
                self.cache_hits += 1
                if cached.rcode != Rcode.NOERROR:
                    raise DnsNameError(f"{current} (negative cache)")
                records = [
                    ResourceRecord(r.name, r.rtype, r.rclass,
                                   cached.remaining_ttl(self.sim.now),
                                   r.rdata)
                    for r in cached.records]
            else:
                self.cache_misses += 1
                records = yield from self._query_authority(current, rtype)
            answers.extend(records)
            terminal = [r for r in records if r.rtype == rtype]
            if terminal:
                return answers
            cname = next((r for r in records
                          if r.rtype == RRType.CNAME), None)
            if cname is None:
                raise DnsServFail(f"no usable answer for {current}")
            current = _t.cast(DomainName, cname.rdata)
        raise DnsServFail(f"CNAME chain too long for {name}")

    def _query_authority(self, name: DomainName, rtype: RRType,
                         ) -> _t.Generator[object, object,
                                           list[ResourceRecord]]:
        authority = self.registry.authority_for(name)
        query = Message.query(name, rtype)
        payload = yield self.sim.process(self.transport.udp_request(
            self.node.name, authority, UDP_DNS_PORT, query.encode()))
        response = Message.decode(_t.cast(bytes, payload))
        if response.header.rcode == Rcode.NXDOMAIN:
            self.cache_put(name, rtype, [], Rcode.NXDOMAIN)
            raise DnsNameError(str(name))
        if response.header.rcode != Rcode.NOERROR:
            raise DnsServFail(
                f"{name}: upstream rcode {response.header.rcode.name}")
        if response.answers:
            self.cache_put(name, rtype, response.answers)
        return list(response.answers)

    def respond(self, query: Message, source: IPv4Address,
                ) -> _t.Generator[object, object, Message]:
        name = query.question_name()
        rtype = query.questions[0].qtype
        answers = yield from self.resolve(name, rtype)
        response = query.make_response()
        response.answers.extend(answers)
        return response


class ForwardingDnsService(DnsService):
    """A caching forwarder — what dnsmasq runs on a stock WiFi AP.

    Forwards misses to one upstream resolver and caches the answers.
    APE-CACHE's AP runtime subclasses this to add DNS-Cache handling,
    exactly as the reference implementation extends dnsmasq.
    """

    role = "forwarder"

    def __init__(self, node: Node, transport: Transport,
                 upstream: "IPv4Address | str",
                 service_time_s: float = 0.2 * MS) -> None:
        super().__init__(node, service_time_s)
        self.transport = transport
        self.upstream = IPv4Address(upstream)
        self._cache: dict[tuple[DomainName, RRType], DnsCacheEntry] = {}
        self.cache_hits = 0
        self.cache_misses = 0

    def cached_answers(self, name: DomainName, rtype: RRType,
                       ) -> list[ResourceRecord] | None:
        """Fresh cached answers for (name, type), or None."""
        entry = self._cache.get((name, rtype))
        if entry is not None and entry.fresh(self.sim.now):
            return entry.records
        self._cache.pop((name, rtype), None)
        return None

    def forward(self, query: Message,
                ) -> _t.Generator[object, object, Message]:
        """Send ``query`` upstream and cache the answers."""
        payload = yield self.sim.process(self.transport.udp_request(
            self.node.name, self.upstream, UDP_DNS_PORT, query.encode()))
        response = Message.decode(_t.cast(bytes, payload))
        if response.answers and response.header.rcode == Rcode.NOERROR:
            name = query.question_name()
            rtype = query.questions[0].qtype
            ttl = min(record.ttl for record in response.answers)
            self._cache[(name, rtype)] = DnsCacheEntry(
                list(response.answers), self.sim.now + ttl)
        return response

    def respond(self, query: Message, source: IPv4Address,
                ) -> _t.Generator[object, object, Message]:
        name = query.question_name()
        rtype = query.questions[0].qtype
        cached = self.cached_answers(name, rtype)
        if cached is not None:
            self.cache_hits += 1
            self.telemetry.counter(
                "dns.forwarder_cache",
                help="forwarder answer cache, by outcome").inc(outcome="hit")
            response = query.make_response()
            response.answers.extend(cached)
            return response
        self.cache_misses += 1
        self.telemetry.counter(
            "dns.forwarder_cache",
            help="forwarder answer cache, by outcome").inc(outcome="miss")
        upstream_response = yield from self.forward(query)
        response = query.make_response(upstream_response.header.rcode)
        response.answers.extend(upstream_response.answers)
        return response
