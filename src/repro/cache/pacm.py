"""PACM: the paper's Priority-Aware Cache Management algorithm.

Section IV-C models eviction as a two-dimensional knapsack: keep the
subset O of cached objects maximizing total utility

    U_d = R(A_d) * e_d * l_d * p_d

subject to (1) the kept bytes fitting beside the incoming object and
(2) the Gini fairness of per-app storage efficiency staying below a
threshold theta (0.4 in the reference implementation).

The implementation solves the capacity dimension with a DP knapsack and
enforces the fairness dimension with a bounded repair loop: while the
kept set is unfair, shed the lowest-utility-density object of the most
over-served app and try to back-fill spare bytes with the highest-utility
rejected objects of under-served apps.
"""

from __future__ import annotations

import typing as _t

from repro.errors import ConfigError
from repro.cache.entry import CacheEntry
from repro.cache.fairness import MIN_FREQUENCY, fairness_index, gini
from repro.cache.frequency import RequestFrequencyTracker
from repro.cache.knapsack import DEFAULT_GRANULARITY, solve_knapsack
from repro.cache.policies import EvictionPolicy
from repro.cache.store import CacheStore
from repro.telemetry.registry import NULL

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry import Telemetry

__all__ = ["PacmPolicy", "utility_of", "select_keep_set",
           "DEFAULT_FAIRNESS_THRESHOLD"]

DEFAULT_FAIRNESS_THRESHOLD = 0.4


def utility_of(entry: CacheEntry, frequency: float, now: float) -> float:
    """The paper's U_d = R(A_d) * e_d * l_d * p_d."""
    return (max(frequency, 0.0) * entry.remaining_ttl(now) *
            entry.fetch_latency_s * entry.priority)


def select_keep_set(entries: _t.Sequence[CacheEntry],
                    capacity_bytes: int,
                    frequency_of: _t.Callable[[str], float],
                    now: float,
                    fairness_threshold: float = DEFAULT_FAIRNESS_THRESHOLD,
                    granularity: int = DEFAULT_GRANULARITY,
                    ) -> list[CacheEntry]:
    """The subset of ``entries`` PACM retains within ``capacity_bytes``."""
    return _keep_set(entries, capacity_bytes, frequency_of, now,
                     fairness_threshold, granularity)[0]


def _keep_set(entries: _t.Sequence[CacheEntry],
              capacity_bytes: int,
              frequency_of: _t.Callable[[str], float],
              now: float,
              fairness_threshold: float,
              granularity: int,
              ) -> tuple[list[CacheEntry], int]:
    """:func:`select_keep_set`, plus how many repair rounds it ran."""
    if capacity_bytes < 0:
        return [], 0
    live = [entry for entry in entries if not entry.is_expired(now)]
    if not live:
        return [], 0
    apps = [entry.app_id for entry in live]
    frequencies = {app: frequency_of(app) for app in dict.fromkeys(apps)}
    utilities = [utility_of(entry, frequencies[app], now)
                 for entry, app in zip(live, apps)]
    sizes = [entry.size_bytes for entry in live]
    # Never quantize coarser than ~1/512 of the capacity, so small caches
    # (and unit tests) keep a meaningful DP resolution.
    effective_granularity = max(1, min(granularity, capacity_bytes // 512))
    # The repair works on indices into ``live``, so it never compares
    # two entries.  ``kept`` and ``rejected`` are ordered sets: a key
    # deleted and inserted again moves to the end.
    kept = dict.fromkeys(solve_knapsack(utilities, sizes, capacity_bytes,
                                        effective_granularity))
    rejected = dict.fromkeys(index for index in range(len(live))
                             if index not in kept)
    held: dict[str, list[int]] = {app: [] for app in frequencies}  # kept order
    usage = dict.fromkeys(frequencies, 0)
    for index in kept:
        held[apps[index]].append(index)
        usage[apps[index]] += sizes[index]
    denominators = {app: max(frequency, MIN_FREQUENCY)
                    for app, frequency in frequencies.items()}

    rounds = 0
    while rounds < len(live):
        efficiencies = {app: usage[app] / denominators[app]
                        for app, indices in held.items() if indices}
        if len(efficiencies) <= 1 or \
                gini(list(efficiencies.values())) <= fairness_threshold:
            break
        rounds += 1
        # sorted() pins the tie-break to app_id order; without it, equal
        # efficiencies would shed whichever app the dict iterates first.
        over_served = max(sorted(efficiencies), key=efficiencies.get)
        # Shed the over-served app's worst value-per-byte object.
        victim = min(held[over_served],
                     key=lambda index: utilities[index] / max(sizes[index], 1))
        held[over_served].remove(victim)
        del kept[victim]
        rejected[victim] = None
        usage[over_served] -= sizes[victim]
        # Back-fill with rejected objects of under-served apps.
        spare = capacity_bytes - sum(usage.values())
        backfill = sorted(
            (index for index in rejected
             if apps[index] != over_served and sizes[index] <= spare),
            key=utilities.__getitem__, reverse=True)
        for index in backfill:
            if sizes[index] <= spare:
                kept[index] = None
                del rejected[index]
                held[apps[index]].append(index)
                usage[apps[index]] += sizes[index]
                spare -= sizes[index]
    return [live[index] for index in kept], rounds


class PacmPolicy(EvictionPolicy):
    """PACM as a drop-in :class:`EvictionPolicy`.

    Shares the AP runtime's :class:`RequestFrequencyTracker`, so utilities
    reflect live per-app request rates.
    """

    def __init__(self, tracker: RequestFrequencyTracker,
                 fairness_threshold: float = DEFAULT_FAIRNESS_THRESHOLD,
                 granularity: int = DEFAULT_GRANULARITY,
                 telemetry: "Telemetry | None" = None) -> None:
        if not 0.0 <= fairness_threshold <= 1.0:
            raise ConfigError(
                f"fairness threshold must be in [0, 1], "
                f"got {fairness_threshold}")
        self.tracker = tracker
        self.fairness_threshold = fairness_threshold
        self.granularity = granularity
        self.selections = 0
        telemetry = telemetry if telemetry is not None else NULL
        self._t_selections = telemetry.counter(
            "pacm.selections", help="PACM victim-selection invocations")
        self._t_victims = telemetry.histogram(
            "pacm.victims", help="victims evicted per PACM selection",
            buckets=(0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0))
        self._t_repair_rounds = telemetry.histogram(
            "pacm.repair_rounds",
            help="fairness repair rounds per PACM selection "
                 "(capped at the live entry count)",
            buckets=(0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0,
                     256.0))

    def select_victims(self, store: CacheStore, incoming: CacheEntry,
                       now: float) -> list[CacheEntry] | None:
        """Evict everything PACM's keep-set excludes (see select_keep_set)."""
        self.selections += 1
        self._t_selections.inc()
        capacity = store.capacity_bytes - incoming.size_bytes
        if capacity < 0:
            return None
        frequency_of = lambda app_id: self.tracker.frequency(app_id)  # noqa: E731
        entries = store.entries()
        kept, rounds = _keep_set(entries, capacity, frequency_of, now,
                                 self.fairness_threshold, self.granularity)
        kept_ids = {id(entry) for entry in kept}
        victims = [entry for entry in entries if id(entry) not in kept_ids]
        self._t_victims.observe(float(len(victims)))
        self._t_repair_rounds.observe(float(rounds))
        return victims

    def fairness(self, store: CacheStore) -> float:
        """Current F(A) of the store under this policy's tracker."""
        return fairness_index(
            store.entries(), lambda app_id: self.tracker.frequency(app_id))
