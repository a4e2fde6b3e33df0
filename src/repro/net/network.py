"""The internetwork: topology, routing, and path delay computation.

Routing is Dijkstra over each link's latency as it stands when the path is
first asked for, with results memoised (topologies are static during an
experiment).  Hop counts and path delays are what the paper's Table I
measures with ``traceroute`` and ``ping``, so both are first-class here.
"""

from __future__ import annotations

import heapq
import typing as _t

from repro.errors import NetworkError, NoRouteError
from repro.net.address import AddressAllocator, IPv4Address
from repro.net.link import Link, LinkKind
from repro.engine.api import Scheduler
from repro.net.node import Node
from repro.telemetry.registry import NULL

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry import Telemetry

__all__ = ["Network", "PathInfo"]


class PathInfo:
    """A resolved route: ordered links plus its precomputed delays."""

    def __init__(self, nodes: list[str], links: list[Link]) -> None:
        self.nodes = nodes
        self.links = links
        self.propagation_s = sum(link.latency_s for link in links)
        self.bottleneck_bps = min(
            (link.bandwidth_bps for link in links), default=float("inf"))

    @property
    def hops(self) -> int:
        """Number of links traversed (the paper's traceroute hop count)."""
        return len(self.links)

    def one_way_delay(self, size_bytes: int = 0) -> float:
        """End-to-end delay for a payload of ``size_bytes``.

        Uses the cut-through model real packet-switched paths approximate
        once a flow is in motion: per-hop propagation plus a single
        serialization of the payload at the bottleneck link (packets
        pipeline across hops, so charging serialization per hop would
        grossly overstate multi-hop transfer times).
        """
        if size_bytes < 0:
            raise NetworkError(f"negative payload size {size_bytes}")
        serialization = ((size_bytes * 8.0) / self.bottleneck_bps
                         if self.links else 0.0)
        return self.propagation_s + serialization

    def account(self, size_bytes: int) -> None:
        for link in self.links:
            link.account(size_bytes)

    def __repr__(self) -> str:
        return (f"<PathInfo {self.nodes[0]}->{self.nodes[-1]} "
                f"hops={self.hops} prop={self.propagation_s * 1e3:.2f}ms>")


class Network:
    """A static topology of named nodes joined by links."""

    def __init__(self, sim: Scheduler,
                 allocator: AddressAllocator | None = None,
                 telemetry: "Telemetry | None" = None) -> None:
        self.sim = sim
        self.allocator = allocator or AddressAllocator()
        self.telemetry = telemetry if telemetry is not None else NULL
        self._nodes: dict[str, Node] = {}
        #: Adjacency: node name -> neighbour name -> the joining link.
        self._links: dict[str, dict[str, Link]] = {}
        self._by_address: dict[IPv4Address, Node] = {}
        self._path_cache: dict[tuple[str, str], PathInfo] = {}

    # ------------------------------------------------------------------
    # Topology construction
    # ------------------------------------------------------------------
    def add_node(self, name: str, address: "IPv4Address | str | None" = None,
                 cpu_capacity: int = 1) -> Node:
        """Create and register a node, auto-allocating an address if needed."""
        if name in self._nodes:
            raise NetworkError(f"duplicate node name {name!r}")
        if address is None:
            resolved = self.allocator.allocate()
        else:
            resolved = IPv4Address(address)
        if resolved in self._by_address:
            raise NetworkError(f"duplicate address {resolved}")
        node = Node(self.sim, name, resolved, cpu_capacity=cpu_capacity)
        self._nodes[name] = node
        self._by_address[resolved] = node
        self._links[name] = {}
        return node

    def add_link(self, a: str, b: str, kind: LinkKind,
                 latency_s: float | None = None) -> Link:
        """Join two existing nodes with a link of the given kind."""
        for endpoint in (a, b):
            if endpoint not in self._nodes:
                raise NetworkError(f"unknown node {endpoint!r}")
        if b in self._links[a]:
            raise NetworkError(f"duplicate link {a!r}<->{b!r}")
        link = Link.of_kind(a, b, kind, latency_s=latency_s,
                            telemetry=self.telemetry)
        self._links[a][b] = self._links[b][a] = link
        self._path_cache.clear()
        return link

    def add_chain(self, a: str, b: str, kind: LinkKind, hops: int,
                  prefix: str | None = None) -> list[Link]:
        """Join ``a`` and ``b`` through ``hops`` links via synthetic routers.

        This is how the testbed expresses "the edge server is 7 hops away":
        6 intermediate router nodes and 7 links of the given kind.
        """
        if hops < 1:
            raise NetworkError(f"a chain needs at least 1 hop, got {hops}")
        prefix = prefix or f"{a}--{b}"
        previous = a
        links = []
        for index in range(hops - 1):
            router = f"{prefix}.r{index}"
            self.add_node(router, cpu_capacity=4)
            links.append(self.add_link(previous, router, kind))
            previous = router
        links.append(self.add_link(previous, b, kind))
        return links

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def node(self, name: str) -> Node:
        """The node registered under `name`; raises NetworkError if absent."""
        try:
            return self._nodes[name]
        except KeyError:
            raise NetworkError(f"unknown node {name!r}") from None

    def node_by_address(self, address: "IPv4Address | str") -> Node:
        """The node holding `address`; raises NetworkError if none does."""
        resolved = IPv4Address(address)
        try:
            return self._by_address[resolved]
        except KeyError:
            raise NetworkError(f"no node holds address {resolved}") from None

    def has_address(self, address: "IPv4Address | str") -> bool:
        """Whether any node holds `address` (malformed input -> False)."""
        try:
            return IPv4Address(address) in self._by_address
        except Exception:
            return False

    def nodes(self) -> list[Node]:
        return list(self._nodes.values())

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def path(self, a: str, b: str) -> PathInfo:
        """Latency-shortest path between two nodes, memoised."""
        key = (a, b)
        cached = self._path_cache.get(key)
        if cached is not None:
            return cached
        for endpoint in (a, b):
            if endpoint not in self._nodes:
                raise NetworkError(f"unknown node {endpoint!r}")
        node_names = self._route(a, b)
        links = [self._links[u][v]
                 for u, v in zip(node_names, node_names[1:])]
        info = PathInfo(node_names, links)
        self._path_cache[key] = info
        self._path_cache[(b, a)] = PathInfo(
            list(reversed(node_names)), list(reversed(links)))
        return info

    def _route(self, a: str, b: str) -> list[str]:
        """Dijkstra on ``link.latency_s`` read now, not at ``add_link``.

        Heap entries order by (latency, hops, node names), so equal-latency
        routes resolve to the fewest hops and then the smaller names.
        """
        frontier: list[tuple[float, int, tuple[str, ...]]] = [(0.0, 0, (a,))]
        settled: set[str] = set()
        while frontier:
            latency_s, hops, names = heapq.heappop(frontier)
            here = names[-1]
            if here == b:
                return list(names)
            if here in settled:
                continue
            settled.add(here)
            for neighbour, link in sorted(self._links[here].items()):
                if neighbour not in settled:
                    heapq.heappush(frontier, (latency_s + link.latency_s,
                                              hops + 1, names + (neighbour,)))
        raise NoRouteError(f"no route from {a!r} to {b!r}")

    def hops(self, a: str, b: str) -> int:
        """Link count on the routed path between two nodes."""
        return self.path(a, b).hops

    def rtt(self, a: str, b: str, size_bytes: int = 0) -> float:
        """Round-trip propagation (+ serialization) between two nodes."""
        forward = self.path(a, b)
        return forward.one_way_delay(size_bytes) + forward.one_way_delay(0)

    def __repr__(self) -> str:
        links = sum(len(peers) for peers in self._links.values()) // 2
        return f"<Network nodes={len(self._nodes)} links={links}>"
