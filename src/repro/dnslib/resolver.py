"""The client-side stub resolver.

Mobile clients resolve names by querying their configured DNS server (on
a WiFi network, the AP) and caching the answers until TTL expiry — which
is precisely the behaviour that motivates APE-CACHE's per-domain batching:
after the first resolution the client stops sending DNS queries for that
domain, so cache lookups for later URLs must be answerable without one.
"""

from __future__ import annotations

import itertools
import typing as _t

from repro.errors import DnsNameError, DnsServFail
from repro.dnslib.message import Message, Rcode
from repro.dnslib.name import DomainName
from repro.dnslib.rr import ResourceRecord, RRType
from repro.dnslib.server import DnsCacheEntry
from repro.net.address import IPv4Address
from repro.net.node import Node, UDP_DNS_PORT
from repro.net.transport import Transport
from repro.telemetry.registry import NULL

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry import Telemetry

__all__ = ["StubResolver", "ResolutionResult"]


class ResolutionResult:
    """Outcome of one stub resolution."""

    def __init__(self, address: IPv4Address, latency_s: float,
                 from_cache: bool,
                 response: Message | None = None) -> None:
        self.address = address
        self.latency_s = latency_s
        self.from_cache = from_cache
        self.response = response

    def __repr__(self) -> str:
        origin = "cache" if self.from_cache else "network"
        return (f"<ResolutionResult {self.address} from {origin} "
                f"in {self.latency_s * 1e3:.2f}ms>")


class StubResolver:
    """A caching stub resolver bound to one client node."""

    def __init__(self, node: Node, transport: Transport,
                 server: "IPv4Address | str",
                 telemetry: "Telemetry | None" = None) -> None:
        self.node = node
        self.sim = node.sim
        self.transport = transport
        self.server = IPv4Address(server)
        self._cache: dict[DomainName, DnsCacheEntry] = {}
        self._ids = itertools.count(1)
        self.network_queries = 0
        self.cache_hits = 0
        self._t_lookups = (telemetry if telemetry is not None
                           else NULL).counter(
            "dns.stub_lookups", help="stub resolutions, by answer origin")

    def next_message_id(self) -> int:
        return next(self._ids) & 0xFFFF

    # ------------------------------------------------------------------
    # Cache
    # ------------------------------------------------------------------
    def cached_address(self, hostname: "DomainName | str",
                       ) -> IPv4Address | None:
        """A fresh cached A answer for ``hostname``, if any."""
        name = DomainName(hostname)
        entry = self._cache.get(name)
        if entry is None or not entry.fresh(self.sim.now):
            self._cache.pop(name, None)
            return None
        for record in entry.records:
            if record.rtype == RRType.A:
                return _t.cast(IPv4Address, record.rdata)
        return None

    def cache_response(self, hostname: "DomainName | str",
                       response: Message) -> None:
        """Cache the A/CNAME chain of ``response`` under ``hostname``."""
        if not response.answers:
            return
        ttl = min(record.ttl for record in response.answers)
        if ttl <= 0:
            # TTL 0 responses (e.g. APE-CACHE's dummy-IP short circuit)
            # must not be reused.
            return
        self._cache[DomainName(hostname)] = DnsCacheEntry(
            list(response.answers), self.sim.now + ttl)

    def flush_cache(self) -> None:
        self._cache.clear()

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def exchange(self, query: "Message | bytes",
                 ) -> _t.Generator[object, object, Message]:
        """Send a prebuilt query, as a message or its wire bytes, to the
        configured server; no caching."""
        self.network_queries += 1
        wire = query if isinstance(query, bytes) else query.encode()
        payload = yield self.sim.process(self.transport.udp_request(
            self.node.name, self.server, UDP_DNS_PORT, wire))
        return Message.decode(_t.cast(bytes, payload))

    def resolve(self, hostname: "DomainName | str",
                ) -> _t.Generator[object, object, ResolutionResult]:
        """Resolve ``hostname`` to an address, using the local cache."""
        name = DomainName(hostname)
        started = self.sim.now
        cached = self.cached_address(name)
        if cached is not None:
            self.cache_hits += 1
            self._t_lookups.inc(origin="cache")
            return ResolutionResult(cached, 0.0, from_cache=True)
        query = Message.query(name, RRType.A,
                              message_id=self.next_message_id())
        response = yield from self.exchange(query)
        if response.header.rcode == Rcode.NXDOMAIN:
            raise DnsNameError(str(name))
        if response.header.rcode != Rcode.NOERROR:
            raise DnsServFail(
                f"{name}: rcode {response.header.rcode.name}")
        address = self._terminal_address(response.answers, name)
        self.cache_response(name, response)
        self._t_lookups.inc(origin="network")
        return ResolutionResult(address, self.sim.now - started,
                                from_cache=False, response=response)

    @staticmethod
    def _terminal_address(answers: _t.Sequence[ResourceRecord],
                          name: DomainName) -> IPv4Address:
        for record in answers:
            if record.rtype == RRType.A:
                return _t.cast(IPv4Address, record.rdata)
        raise DnsServFail(f"no A record in answer for {name}")
