"""The evaluation testbed (paper Fig. 9), built in simulation.

Topology::

    phones/desktop --wifi-- AP --wan--+-- LDNS --wan-- {ADNS, CDN DNS}
                                      +-- edge cache server   (7 hops)
                                      +-- Wi-Cache controller (12 hops)
                                      +-- origin servers      (farther)

The testbed builds the network, the DNS infrastructure (registry, an
authoritative server whose zones CNAME app domains into the CDN, and the
CDN's DNS resolving to the edge server), the edge cache, and the origin
tier.  What runs *on the AP* is left to the caching system under test:
plain forwarding DNS for the Edge Cache baseline, the Wi-Cache agent, or
APE-CACHE's :class:`~repro.core.ApRuntime`.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.errors import ConfigError
from repro.dnslib.server import (
    AuthoritativeService,
    CdnDnsService,
    RecursiveResolverService,
)
from repro.dnslib.zone import DnsRegistry, Zone
from repro.httplib.content import DataObject
from repro.httplib.server import (
    EdgeCacheServer,
    HostingDirectory,
    OriginServer,
)
from repro.httplib.url import Url
from repro.net.link import ETHERNET, WAN, WIFI
from repro.net.network import Network
from repro.net.node import Node
from repro.net.transport import Transport
from repro.engine.api import MS
from repro.sim.kernel import Simulator
from repro.sim.randomness import RandomStreams
from repro.telemetry.registry import NULL, Telemetry

__all__ = ["TestbedConfig", "Testbed", "CDN_DOMAIN"]

#: The CDN's DNS suffix (the role ``edgekey.net`` plays for Akamai).
CDN_DOMAIN = "cdn.example"


@dataclasses.dataclass
class TestbedConfig:
    """Knobs for the simulated deployment."""

    __test__ = False  # not a pytest test class despite the name

    #: Network hops between the AP and the edge cache server (paper: 7).
    edge_hops: int = 7
    #: Hops between the AP and the Wi-Cache controller on EC2 (paper: 12).
    controller_hops: int = 12
    #: Hops between the AP and the ISP's recursive resolver.
    ldns_hops: int = 3
    #: Hops between the LDNS and the authoritative/CDN DNS servers.
    adns_hops: int = 5
    #: Hops between the edge tier and the origin servers.
    origin_hops: int = 10
    #: Per-WAN-hop one-way latency.  ~1 ms/hop reproduces the paper's
    #: testbed: the edge server 7 hops away answers pings in ~14 ms RTT,
    #: making its measured cache-retrieval latency (2 RTT + service)
    #: land near 30 ms.
    wan_hop_latency_s: float = 1.0 * MS
    #: Per-hop latency on the AP->controller path.  The paper's EC2
    #: controller is 12 hops away but on fast transit (Table I suggests
    #: ~1.2 ms/hop on such paths), so it gets its own knob.
    controller_hop_latency_s: float = 0.9 * MS
    #: WiFi one-way latency between stations and the AP.
    wifi_latency_s: float = 1.0 * MS
    #: Concurrent requests the AP CPU can service (router-class: 1).
    ap_cpu_capacity: int = 1
    #: Concurrent requests server-class machines can service.
    server_cpu_capacity: int = 8
    #: Latency jitter applied to every one-way trip.
    jitter_fraction: float = 0.05
    #: Master seed for all randomness.
    seed: int = 0
    #: Collect metrics and spans (see :mod:`repro.telemetry`).  Off by
    #: default: un-instrumented runs keep the no-op null backend.
    enable_telemetry: bool = False

    def __post_init__(self) -> None:
        for name in ("edge_hops", "controller_hops", "ldns_hops",
                     "adns_hops", "origin_hops"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")


class Testbed:
    """A fully wired deployment ready for a caching system to move in."""

    __test__ = False  # not a pytest test class despite the name

    def __init__(self, config: TestbedConfig | None = None) -> None:
        self.config = config or TestbedConfig()
        #: The virtual-time engine everything clocks and schedules off.
        self.sim = Simulator()
        self.streams = RandomStreams(self.config.seed)
        #: One registry for every tier, clocked on this testbed's
        #: simulator, so cross-tier traces share one id space.
        self.telemetry: Telemetry = (
            Telemetry(self.sim) if self.config.enable_telemetry
            else NULL)
        self.network = Network(self.sim, telemetry=self.telemetry)
        self.transport = Transport(
            self.network,
            rng=self.streams.stream("transport-jitter"),
            jitter_fraction=self.config.jitter_fraction)
        self._build_topology()
        self._build_dns()
        self._build_http()
        self._client_count = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_topology(self) -> None:
        cfg = self.config
        net = self.network
        self.ap = net.add_node("ap", "192.168.8.1",
                               cpu_capacity=cfg.ap_cpu_capacity)
        self.ldns = net.add_node("ldns",
                                 cpu_capacity=cfg.server_cpu_capacity)
        self.adns = net.add_node("adns",
                                 cpu_capacity=cfg.server_cpu_capacity)
        self.cdndns = net.add_node("cdndns",
                                   cpu_capacity=cfg.server_cpu_capacity)
        self.edge = net.add_node("edge",
                                 cpu_capacity=cfg.server_cpu_capacity)
        self.origin = net.add_node("origin",
                                   cpu_capacity=cfg.server_cpu_capacity)
        self.controller = net.add_node(
            "controller", cpu_capacity=cfg.server_cpu_capacity)

        def wan(a: str, b: str, hops: int,
                hop_latency_s: float | None = None) -> None:
            links = net.add_chain(a, b, WAN, hops=hops, prefix=f"{a}-{b}")
            for link in links:
                link.latency_s = (hop_latency_s if hop_latency_s is not None
                                  else cfg.wan_hop_latency_s)

        wan("ap", "ldns", cfg.ldns_hops)
        wan("ldns", "adns", cfg.adns_hops)
        wan("ldns", "cdndns", cfg.adns_hops)
        wan("ap", "edge", cfg.edge_hops)
        wan("ap", "controller", cfg.controller_hops,
            hop_latency_s=cfg.controller_hop_latency_s)
        wan("edge", "origin", cfg.origin_hops)

    def _build_dns(self) -> None:
        self.registry = DnsRegistry()
        self.adns_service = AuthoritativeService(self.adns)
        self.adns_service.bind_telemetry(self.telemetry)
        self.adns_service.install()
        # Real CDN mapping systems keep A-record TTLs very short so they
        # can re-steer clients; 5 s means an app executing every ~20 s
        # pays a full resolution per execution, as the paper measures.
        self.cdn_service = CdnDnsService(
            self.cdndns, CDN_DOMAIN,
            pop_selector=self._select_pop,
            origin_for=lambda _name: self.origin.address,
            answer_ttl=5)
        self.cdn_service.bind_telemetry(self.telemetry)
        self.cdn_service.install()
        self.registry.delegate(CDN_DOMAIN, self.cdndns.address)
        self.ldns_service = RecursiveResolverService(
            self.ldns, self.transport, self.registry)
        self.ldns_service.bind_telemetry(self.telemetry)
        self.ldns_service.install()
        self._domains: set[str] = set()

    def _select_pop(self, _name, _source) -> object:
        return self.edge.address

    def _build_http(self) -> None:
        self.directory = HostingDirectory()
        self.origin_server = OriginServer(self.origin)
        self.origin_server.install()
        self.edge_server = EdgeCacheServer(self.edge, self.transport,
                                           self.directory)
        self.edge_server.install()

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------
    def add_client(self, name: str | None = None,
                   ap_name: str = "ap") -> Node:
        """Attach a new WiFi station (phone / emulator desktop).

        ``ap_name`` selects which access point the station associates
        with (relevant once :meth:`add_peer_ap` has grown the WLAN).
        """
        self._client_count += 1
        node = self.network.add_node(
            name or f"client{self._client_count}",
            cpu_capacity=4)
        link = self.network.add_link(node.name, ap_name, WIFI)
        link.latency_s = self.config.wifi_latency_s
        return node

    def add_peer_ap(self, name: str) -> Node:
        """Add another access point on the same wired LAN.

        Peer APs hang off a shared switch one Ethernet hop from the
        primary AP — the enterprise-WLAN layout the original Wi-Cache
        system targets.  Their clients reach the WAN through the primary
        AP's uplink.
        """
        if not self.network.has_address("192.168.8.2"):
            switch = self.network.add_node(
                "lan-switch", "192.168.8.2",
                cpu_capacity=self.config.server_cpu_capacity)
            self.network.add_link("ap", switch.name, ETHERNET)
        node = self.network.add_node(
            name, cpu_capacity=self.config.ap_cpu_capacity)
        self.network.add_link(name, "lan-switch", ETHERNET)
        return node

    def add_domain(self, domain: str) -> None:
        """Publish ``domain`` through the CDN (CNAME into cdn.example)."""
        if domain in self._domains:
            return
        zone = Zone(domain)
        zone.add_cname(domain, f"{domain}.{CDN_DOMAIN}", ttl=3600)
        self.adns_service.add_zone(zone)
        self.registry.delegate(domain, self.adns.address)
        self._domains.add(domain)

    def host_object(self, url: str, size_bytes: int,
                    origin_delay_s: float = 0.0,
                    preload_edge: bool = True) -> DataObject:
        """Create an object at the origin and publish its domain.

        ``origin_delay_s`` is the paper's per-object simulated retrieval
        latency: the evaluation hosts objects on the edge server "with an
        added delay ... to simulate the latency experienced when
        retrieving them from various servers", so the delay applies both
        at the origin and on every edge serve.  ``preload_edge`` mirrors
        the paper's assumption of an amply provisioned, warm edge cache.
        """
        parsed = Url.parse(url)
        self.add_domain(parsed.host)
        data_object = DataObject(parsed.base, size_bytes)
        self.origin_server.host(data_object, service_delay_s=origin_delay_s)
        self.directory.register(parsed.base, self.origin.address)
        if preload_edge:
            self.edge_server.preload([data_object])
            if origin_delay_s:
                self.edge_server.set_serve_delay(parsed.base,
                                                 origin_delay_s)
        return data_object

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def run(self, until: float | None = None) -> None:
        """Advance the simulation (to `until` seconds, or to quiescence)."""
        self.sim.run(until=until)

    def rtt_ms(self, a: str, b: str) -> float:
        """Round-trip time between two nodes, in milliseconds."""
        return self.network.rtt(a, b) * 1e3

    def __repr__(self) -> str:
        return (f"<Testbed clients={self._client_count} "
                f"domains={len(self._domains)}>")
