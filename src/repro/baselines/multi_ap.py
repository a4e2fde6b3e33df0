"""Distributed Wi-Cache across multiple APs (the original system's form).

The paper adapts Wi-Cache (Chhangte et al.) to a single AP; the original
distributes cached content across the APs of an enterprise WLAN, with
the controller redirecting each request to whichever AP holds the
object.  This module restores that form on top of the single-AP pieces:

* one :class:`~repro.baselines.wicache.WiCacheAgent` per AP;
* one controller mapping URL hashes to the *holding AP's* address;
* clients associated with a home AP — hits may be served by a neighbor
  AP over the wired LAN (slightly slower than the home AP, still far
  cheaper than the edge);
* misses fill the *home* AP's cache, so content naturally spreads.

Every agent's cache records into the testbed's one registry
(``cache.*``, ``tier=ap``) like the single-AP system's;
:meth:`WiCacheDistributedSystem.ap_cache_stats` sums the agents'
counters for the ``multiap`` experiment.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.baselines.base import CachingSystem
from repro.baselines.wicache import (
    WiCacheAgent,
    WiCacheController,
    WiCacheFetcher,
)
from repro.dnslib.server import ForwardingDnsService
from repro.net.node import Node
from repro.testbed import Testbed

__all__ = ["WiCacheDistributedSystem"]

MB = 1024 * 1024


class WiCacheDistributedSystem(CachingSystem):
    """Wi-Cache with ``n_aps`` cooperating access points."""

    name = "Wi-Cache-Distributed"

    def __init__(self, n_aps: int = 2,
                 cache_capacity_per_ap: int = 5 * MB) -> None:
        if n_aps < 1:
            raise ConfigError(f"need at least one AP, got {n_aps}")
        self.n_aps = n_aps
        self.cache_capacity_per_ap = cache_capacity_per_ap
        self.controller: WiCacheController | None = None
        self.agents: list[WiCacheAgent] = []
        self._ap_names: list[str] = []
        self._next_home = 0

    def install(self, bed: Testbed) -> None:
        ForwardingDnsService(bed.ap, bed.transport,
                             bed.ldns.address).install()
        self.controller = WiCacheController(bed.controller,
                                            bed.edge.address)
        self.controller.install()
        self._ap_names = ["ap"]
        for index in range(1, self.n_aps):
            bed.add_peer_ap(f"ap{index + 1}")
            self._ap_names.append(f"ap{index + 1}")
        for ap_name in self._ap_names:
            agent = WiCacheAgent(bed, self.controller,
                                 self.cache_capacity_per_ap,
                                 node=bed.network.node(ap_name))
            agent.install()
            self.agents.append(agent)

    def home_ap_name(self, index: int | None = None) -> str:
        """Round-robin home-AP assignment for new clients."""
        if index is None:
            index = self._next_home
            self._next_home += 1
        return self._ap_names[index % len(self._ap_names)]

    def new_fetcher(self, bed: Testbed, node: Node,
                    app_id: str) -> WiCacheFetcher:
        if self.controller is None or not self.agents:
            raise ConfigError(f"{self.name}.install was not called")
        # The client's home agent is the AP it associates with; the
        # topology tells us which AP that is (one WiFi hop away).
        home_agent = self._agent_for(bed, node)
        return WiCacheFetcher(bed, node, app_id, home_agent,
                              self.controller.node.address)

    def _agent_for(self, bed: Testbed, node: Node) -> WiCacheAgent:
        for agent in self.agents:
            if bed.network.hops(node.name, agent.node.name) == 1:
                return agent
        # Not directly associated (e.g. a wired desktop): use the
        # primary AP's agent.
        return self.agents[0]

    def ap_cache_stats(self) -> dict[str, float]:
        if not self.agents:
            return {}
        return {
            "hits_served": float(sum(agent.hits_served
                                     for agent in self.agents)),
            "background_fills": float(sum(agent.background_fills
                                          for agent in self.agents)),
            "cache_used_bytes": float(sum(agent.store.used_bytes
                                          for agent in self.agents)),
            "controller_lookups": float(
                self.controller.lookups if self.controller else 0),
        }
