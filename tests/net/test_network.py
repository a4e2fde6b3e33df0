"""Unit tests for topology, routing, and transport."""

import pytest

from repro.errors import (
    AddressError,
    NetworkError,
    NoRouteError,
    TransportError,
)
from repro.net import (
    DUMMY_IP,
    ETHERNET,
    WAN,
    WIFI,
    AddressAllocator,
    IPv4Address,
    Network,
    Transport,
)
from repro.sim import MS, Simulator


# ----------------------------------------------------------------------
# Addresses
# ----------------------------------------------------------------------
def test_address_roundtrip():
    addr = IPv4Address("192.168.8.1")
    assert str(addr) == "192.168.8.1"
    assert IPv4Address.from_bytes(addr.to_bytes()) == addr


@pytest.mark.parametrize("bad", ["1.2.3", "1.2.3.4.5", "256.0.0.1",
                                 "01.2.3.4", "a.b.c.d", ""])
def test_malformed_addresses_rejected(bad):
    with pytest.raises(AddressError):
        IPv4Address(bad)


def test_address_equality_with_string():
    assert IPv4Address("10.0.0.1") == "10.0.0.1"
    assert IPv4Address("10.0.0.1") != "10.0.0.2"


def test_dummy_ip_is_not_private_and_is_zero():
    assert str(DUMMY_IP) == "0.0.0.0"
    assert not DUMMY_IP.is_private()


@pytest.mark.parametrize("addr,expected", [
    ("10.1.2.3", True),
    ("172.16.0.1", True),
    ("172.32.0.1", False),
    ("192.168.1.1", True),
    ("8.8.8.8", False),
])
def test_private_ranges(addr, expected):
    assert IPv4Address(addr).is_private() is expected


def test_allocator_hands_out_unique_addresses():
    allocator = AddressAllocator()
    addresses = allocator.allocate_many(100)
    assert len(set(addresses)) == 100


def test_allocator_exhaustion():
    allocator = AddressAllocator(pool_size=3)
    allocator.allocate_many(2)
    with pytest.raises(AddressError):
        allocator.allocate()


# ----------------------------------------------------------------------
# Topology and routing
# ----------------------------------------------------------------------
def build_simple_network():
    sim = Simulator()
    net = Network(sim)
    net.add_node("client")
    net.add_node("ap")
    net.add_node("edge")
    net.add_link("client", "ap", WIFI)
    net.add_chain("ap", "edge", WAN, hops=7)
    return sim, net


def test_hop_counts():
    _sim, net = build_simple_network()
    assert net.hops("client", "ap") == 1
    assert net.hops("ap", "edge") == 7
    assert net.hops("client", "edge") == 8


def test_path_delay_sums_link_latencies():
    _sim, net = build_simple_network()
    path = net.path("ap", "edge")
    assert path.propagation_s == pytest.approx(7 * 2.0 * MS)


def test_rtt_is_twice_one_way_for_empty_payload():
    _sim, net = build_simple_network()
    rtt = net.rtt("client", "ap")
    assert rtt == pytest.approx(2 * 1.0 * MS)


def test_duplicate_node_rejected():
    sim = Simulator()
    net = Network(sim)
    net.add_node("a")
    with pytest.raises(NetworkError):
        net.add_node("a")


def test_unknown_node_rejected():
    sim = Simulator()
    net = Network(sim)
    net.add_node("a")
    with pytest.raises(NetworkError):
        net.path("a", "ghost")


def test_no_route_between_disconnected_components():
    sim = Simulator()
    net = Network(sim)
    net.add_node("a")
    net.add_node("b")
    with pytest.raises(NoRouteError):
        net.path("a", "b")


def test_node_lookup_by_address():
    sim = Simulator()
    net = Network(sim)
    node = net.add_node("srv", "9.9.9.9")
    assert net.node_by_address("9.9.9.9") is node
    assert net.has_address("9.9.9.9")
    assert not net.has_address("9.9.9.10")


def test_routing_prefers_lower_latency():
    sim = Simulator()
    net = Network(sim)
    for name in ("a", "b", "slow", "fast"):
        net.add_node(name)
    net.add_link("a", "slow", WAN, latency_s=50 * MS)
    net.add_link("slow", "b", WAN, latency_s=50 * MS)
    net.add_link("a", "fast", WAN, latency_s=1 * MS)
    net.add_link("fast", "b", WAN, latency_s=1 * MS)
    assert net.path("a", "b").nodes == ["a", "fast", "b"]


def test_routing_reads_latency_set_after_add_link():
    """Testbed.wan() and AkamaiStudy._chain() set latency_s afterwards."""
    sim = Simulator()
    net = Network(sim)
    for name in ("a", "b", "c"):
        net.add_node(name)
    direct = net.add_link("a", "b", WAN)
    net.add_link("a", "c", WAN)
    net.add_link("c", "b", WAN)
    direct.latency_s = 1.0
    path = net.path("a", "b")
    assert path.nodes == ["a", "c", "b"]
    assert path.propagation_s == pytest.approx(4 * MS)


def test_routing_ties_break_on_hops_then_node_name():
    sim = Simulator()
    net = Network(sim)
    for name in ("a", "b", "y", "x"):
        net.add_node(name)
    for via in ("y", "x"):           # two 2-hop routes of 4 ms each
        net.add_link("a", via, WAN)
        net.add_link(via, "b", WAN)
    assert net.path("a", "b").nodes == ["a", "x", "b"]
    net.add_link("a", "b", WAN, latency_s=4 * MS)   # 1 hop, same 4 ms
    assert net.path("a", "b").nodes == ["a", "b"]
    assert net.path("b", "a").nodes == ["b", "a"]


# ----------------------------------------------------------------------
# Transport
# ----------------------------------------------------------------------
def test_udp_request_round_trip_latency():
    sim, net = build_simple_network()
    transport = Transport(net)
    ap = net.node("ap")

    def echo(payload, _source):
        yield sim.timeout(0.5 * MS)  # handler service time
        return b"echo:" + payload

    ap.bind_udp(53, echo)

    def client_proc():
        response = yield sim.process(transport.udp_request(
            "client", ap.address, 53, b"hello"))
        return (sim.now, response)

    now, response = sim.run_process(client_proc())
    assert response == b"echo:hello"
    # one-way out + 0.5ms service + one-way back, plus serialization.
    assert now == pytest.approx(2.5 * MS, rel=0.05)


def test_udp_unbound_port_raises():
    sim, net = build_simple_network()
    transport = Transport(net)

    def client_proc():
        yield sim.process(transport.udp_request(
            "client", net.node("ap").address, 99, b"x"))

    with pytest.raises(TransportError):
        sim.run_process(client_proc())


class _Message:
    def __init__(self, wire_size):
        self.wire_size = wire_size


def test_tcp_exchange_includes_handshake():
    sim, net = build_simple_network()
    transport = Transport(net)
    edge = net.node("edge")

    def server(request, _source):
        yield sim.timeout(0)
        return _Message(wire_size=1000)

    edge.bind_tcp(80, server)

    def client_proc():
        response = yield sim.process(transport.tcp_exchange(
            "client", edge.address, 80, _Message(wire_size=200)))
        return (sim.now, response)

    now, response = sim.run_process(client_proc())
    assert response.wire_size == 1000
    one_way = net.path("client", "edge").propagation_s
    # handshake RTT + request one-way + response one-way, >= 4 propagation.
    assert now >= 4 * one_way
    assert now == pytest.approx(4 * one_way, rel=0.10)


def test_tcp_response_requires_wire_size():
    sim, net = build_simple_network()
    transport = Transport(net)
    edge = net.node("edge")

    def server(request, _source):
        yield sim.timeout(0)
        return object()

    edge.bind_tcp(80, server)

    def client_proc():
        yield sim.process(transport.tcp_exchange(
            "client", edge.address, 80, _Message(wire_size=10)))

    with pytest.raises(TransportError):
        sim.run_process(client_proc())


def test_transport_jitter_bounds():
    sim, net = build_simple_network()
    transport = Transport(net, jitter_fraction=0.2)
    base = net.path("client", "edge").one_way_delay(100)
    delays = [transport.one_way("client", "edge", 100) for _ in range(200)]
    assert all(0.8 * base <= d <= 1.2 * base for d in delays)
    assert min(delays) < base < max(delays)


def test_jitter_fraction_validation():
    _sim, net = build_simple_network()
    with pytest.raises(TransportError):
        Transport(net, jitter_fraction=1.5)


def test_chain_requires_positive_hops():
    sim = Simulator()
    net = Network(sim)
    net.add_node("a")
    net.add_node("b")
    with pytest.raises(NetworkError):
        net.add_chain("a", "b", ETHERNET, hops=0)
