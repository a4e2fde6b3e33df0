"""The bounded cache store running on the AP.

The store tracks byte occupancy and delegates victim selection to a
pluggable :class:`~repro.cache.policies.EvictionPolicy` (LRU for the
baselines, PACM for APE-CACHE).  TTL expiry is enforced lazily on access
and eagerly before every admission decision, mirroring how dnsmasq-style
daemons sweep their tables.

Every change to what the store holds bumps :attr:`CacheStore.generation`,
so an answer derived from the store can tell whether it still holds.
"""

from __future__ import annotations

import typing as _t

from repro.errors import CacheError, CapacityError
from repro.cache.entry import CacheEntry
from repro.httplib.url import Url
from repro.telemetry.registry import NULL

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.cache.policies import EvictionPolicy
    from repro.dnslib.name import DomainName
    from repro.telemetry import Telemetry

__all__ = ["CacheStore", "AdmissionResult"]


class AdmissionResult:
    """Outcome of one admission: whether stored, and who was evicted."""

    def __init__(self, admitted: bool,
                 evicted: list[CacheEntry] | None = None) -> None:
        self.admitted = admitted
        self.evicted = evicted or []

    def __repr__(self) -> str:
        return (f"<AdmissionResult admitted={self.admitted} "
                f"evicted={len(self.evicted)}>")


class CacheStore:
    """A capacity-bounded map from base URL to :class:`CacheEntry`."""

    def __init__(self, capacity_bytes: int,
                 telemetry: "Telemetry | None" = None,
                 tier: str = "ap") -> None:
        if capacity_bytes <= 0:
            raise CacheError(
                f"capacity must be positive, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self.tier = tier
        self._entries: dict[str, CacheEntry] = {}
        #: host -> {key: entry}, maintained wherever ``_entries`` is
        #: mutated, so order within a host is global insertion order.
        self._by_host: dict[str, dict[str, CacheEntry]] = {}
        #: URL hash -> entry, so a hash leaves with its entry.
        self._by_hash: dict[bytes, CacheEntry] = {}
        #: Bumped by every admit, drop and clear.
        self.generation = 0
        self.used_bytes = 0
        self.insertions = 0
        self.evictions = 0
        self.expirations = 0
        telemetry = telemetry if telemetry is not None else NULL
        self._t_lookups = telemetry.counter(
            "cache.lookups", help="store lookups by tier and outcome")
        self._t_events = telemetry.counter(
            "cache.events",
            help="insertions/evictions/expirations by tier (and app)")
        self._t_used = telemetry.gauge(
            "cache.used_bytes", help="occupied bytes by tier")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, url: "Url | str") -> bool:
        return self._key(url) in self._entries

    @staticmethod
    def _key(url: "Url | str") -> str:
        return (url if isinstance(url, Url) else Url.parse(url)).base

    @staticmethod
    def _locate(url: "Url | str") -> tuple[str, str]:
        """``(host, key)``: where ``url`` lives in the per-host index."""
        parsed = url if isinstance(url, Url) else Url.parse(url)
        return parsed.host.rstrip("."), parsed.base

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes

    def entries(self) -> list[CacheEntry]:
        # Insertion order of ``_entries`` is deterministic in-process
        # and PACM's min/max tie-breaks rely on it intentionally;
        # sorting here would reorder re-stored entries and change
        # eviction behaviour.
        return list(self._entries.values())

    def in_domain(self, domain: "DomainName | str",
                  ) -> _t.Mapping[str, CacheEntry]:
        """``{key: entry}`` of every entry stored under ``domain``'s host,
        in insertion order.  The host matches as :class:`DomainName`
        compares: case-insensitive, trailing dot ignored."""
        return self._by_host.get(str(domain).lower().rstrip("."), {})

    def apps(self) -> set[str]:
        return {entry.app_id for entry in self._entries.values()}

    def utilization(self) -> float:
        return self.used_bytes / self.capacity_bytes

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, url: "Url | str", now: float) -> CacheEntry | None:
        """A fresh entry for ``url`` (touching it), or None."""
        entry = self._entries.get(self._key(url))
        if entry is None:
            self._t_lookups.inc(tier=self.tier, outcome="miss")
            return None
        if entry.is_expired(now):
            self._drop(entry, expired=True)
            self._t_lookups.inc(tier=self.tier, outcome="expired")
            return None
        entry.touch(now)
        self._t_lookups.inc(tier=self.tier, outcome="hit")
        return entry

    def peek(self, url: "Url | str") -> CacheEntry | None:
        """The entry regardless of freshness, without touching it."""
        return self._entries.get(self._key(url))

    def peek_hash(self, url_hash: bytes) -> CacheEntry | None:
        """:meth:`peek` by the entry's :attr:`CacheEntry.url_hash`."""
        return self._by_hash.get(url_hash)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def sweep_expired(self, now: float) -> list[CacheEntry]:
        """Remove every expired entry, returning them."""
        expired = [entry for entry in self._entries.values()
                   if entry.is_expired(now)]
        for entry in expired:
            self._drop(entry, expired=True)
        return expired

    def admit(self, entry: CacheEntry, policy: "EvictionPolicy",
              now: float) -> AdmissionResult:
        """Insert ``entry``, evicting per ``policy`` if space is needed.

        A same-URL entry is replaced in place first.  Raises
        :class:`CapacityError` if the object alone exceeds capacity.
        """
        if entry.size_bytes > self.capacity_bytes:
            raise CapacityError(
                f"{entry.url} ({entry.size_bytes}B) exceeds cache capacity "
                f"({self.capacity_bytes}B)")
        host, key = self._locate(entry.parsed_url)
        existing = self._entries.get(key)
        if existing is not None:
            self._drop(existing, expired=False, count_eviction=False)
        self.sweep_expired(now)
        evicted: list[CacheEntry] = []
        if entry.size_bytes > self.free_bytes:
            victims = policy.select_victims(self, entry, now)
            if victims is None:
                return AdmissionResult(admitted=False)
            for victim in victims:
                self._drop(victim, expired=False)
                evicted.append(victim)
            if entry.size_bytes > self.free_bytes:
                raise CacheError(
                    f"policy {type(policy).__name__} freed too little room "
                    f"for {entry.url}")
        self._entries[key] = entry
        self._by_host.setdefault(host, {})[key] = entry
        self._by_hash[entry.url_hash] = entry
        self.generation += 1
        self.used_bytes += entry.size_bytes
        self.insertions += 1
        self._t_events.inc(tier=self.tier, event="insertion",
                           app=entry.app_id)
        self._t_used.set(self.used_bytes, tier=self.tier)
        return AdmissionResult(admitted=True, evicted=evicted)

    def remove(self, url: "Url | str") -> CacheEntry | None:
        entry = self._entries.get(self._key(url))
        if entry is not None:
            self._drop(entry, expired=False)
        return entry

    def clear(self) -> None:
        self._entries.clear()
        self._by_host.clear()
        self._by_hash.clear()
        self.generation += 1
        self.used_bytes = 0

    def _drop(self, entry: CacheEntry, expired: bool,
              count_eviction: bool = True) -> None:
        host, key = self._locate(entry.parsed_url)
        removed = self._entries.pop(key, None)
        if removed is None:  # pragma: no cover - internal invariant
            raise CacheError(f"{entry.url} vanished from the store")
        same_host = self._by_host[host]
        del same_host[key]
        if not same_host:
            del self._by_host[host]
        del self._by_hash[removed.url_hash]
        self.generation += 1
        self.used_bytes -= removed.size_bytes
        self._t_used.set(self.used_bytes, tier=self.tier)
        if expired:
            self.expirations += 1
            self._t_events.inc(tier=self.tier, event="expiration",
                               app=removed.app_id)
        elif count_eviction:
            self.evictions += 1
            self._t_events.inc(tier=self.tier, event="eviction",
                               app=removed.app_id)

    def __repr__(self) -> str:
        return (f"<CacheStore {self.used_bytes}/{self.capacity_bytes}B "
                f"entries={len(self._entries)}>")
