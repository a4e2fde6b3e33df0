"""PACM, fairness, frequency, and knapsack tests (with hypothesis)."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cache import (
    CacheEntry,
    CacheStore,
    LruPolicy,
    PacmPolicy,
    RequestFrequencyTracker,
    fairness_index,
    gini,
    select_keep_set,
    solve_knapsack,
    solve_knapsack_exact,
    storage_efficiencies,
    utility_of,
)
from repro.cache.fairness import MIN_FREQUENCY
from repro.cache.knapsack import DEFAULT_GRANULARITY, total_size, total_value
from repro.errors import CacheError, ConfigError
from repro.httplib import DataObject
from repro.telemetry import Telemetry


def make_entry(url, size, app="app-1", priority=1, stored=0.0, ttl=600.0,
               latency=0.030):
    return CacheEntry(DataObject(url, size), app_id=app, priority=priority,
                      stored_at=stored, expires_at=stored + ttl,
                      fetch_latency_s=latency)


# ----------------------------------------------------------------------
# Gini / fairness
# ----------------------------------------------------------------------
def test_gini_equal_values_is_zero():
    assert gini([5.0, 5.0, 5.0, 5.0]) == pytest.approx(0.0)


def test_gini_total_inequality_approaches_one():
    # One holder of everything among many: G = (n-1)/n.
    values = [0.0] * 9 + [100.0]
    assert gini(values) == pytest.approx(0.9)


def test_gini_trivial_inputs():
    assert gini([]) == 0.0
    assert gini([42.0]) == 0.0
    assert gini([0.0, 0.0]) == 0.0


def test_gini_rejects_negatives():
    with pytest.raises(ValueError):
        gini([1.0, -1.0])


def test_gini_matches_definition_formula():
    values = [1.0, 2.0, 7.0, 4.0]
    n = len(values)
    double_sum = sum(abs(x - y) for x in values for y in values)
    expected = double_sum / (2 * n * sum(values))
    assert gini(values) == pytest.approx(expected)


@given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                          allow_nan=False), min_size=2, max_size=30))
def test_gini_bounds_property(values):
    coefficient = gini(values)
    assert 0.0 <= coefficient <= 1.0


@given(st.lists(st.floats(min_value=0.01, max_value=1e6,
                          allow_nan=False), min_size=2, max_size=20),
       st.floats(min_value=0.1, max_value=10.0))
def test_gini_scale_invariant(values, scale):
    assert gini(values) == pytest.approx(gini([v * scale for v in values]),
                                         abs=1e-9)


def test_storage_efficiency_definition():
    entries = [make_entry("http://a/1", 600, app="a"),
               make_entry("http://a/2", 400, app="a"),
               make_entry("http://b/1", 500, app="b")]
    frequencies = {"a": 2.0, "b": 5.0}
    efficiencies = storage_efficiencies(entries, frequencies.get)
    assert efficiencies["a"] == pytest.approx(1000 / 2.0)
    assert efficiencies["b"] == pytest.approx(500 / 5.0)


def test_fairness_index_single_app_is_zero():
    entries = [make_entry("http://a/1", 100, app="a")]
    assert fairness_index(entries, lambda _app: 1.0) == 0.0


# ----------------------------------------------------------------------
# Frequency tracker
# ----------------------------------------------------------------------
def test_tracker_validation():
    with pytest.raises(ConfigError):
        RequestFrequencyTracker(alpha=0.0)
    with pytest.raises(ConfigError):
        RequestFrequencyTracker(window_s=0)


def test_tracker_cold_start_sees_pending_window():
    tracker = RequestFrequencyTracker(alpha=0.7, window_s=60.0)
    tracker.observe("app", now=1.0)
    tracker.observe("app", now=2.0)
    assert tracker.frequency("app", now=3.0) > 0


def test_tracker_ewma_blend():
    tracker = RequestFrequencyTracker(alpha=0.7, window_s=60.0)
    for second in range(10):
        tracker.observe("app", now=float(second))
    # Roll one full window: estimate = 0.3*0 + 0.7*10.
    tracker.observe("app", now=61.0)
    # frequency() blends the closed-window estimate with pending count.
    estimate = tracker._estimates["app"]
    assert estimate == pytest.approx(0.7 * 10)


def test_tracker_decays_without_traffic():
    tracker = RequestFrequencyTracker(alpha=0.7, window_s=60.0)
    for second in range(30):
        tracker.observe("app", now=float(second))
    busy = tracker.frequency("app", now=61.0)
    idle = tracker.frequency("app", now=60.0 * 20)
    assert idle < busy
    assert idle == pytest.approx(0.0, abs=1e-3)


def test_tracker_unknown_app_is_zero():
    tracker = RequestFrequencyTracker()
    assert tracker.frequency("ghost") == 0.0


def test_tracker_normalizes_to_per_minute():
    tracker = RequestFrequencyTracker(alpha=1.0, window_s=30.0)
    for tick in range(6):
        tracker.observe("app", now=tick * 5.0)
    # 6 requests in a closed 30 s window -> 12 per minute.
    assert tracker.frequency("app", now=31.0) == pytest.approx(12.0)


# ----------------------------------------------------------------------
# Knapsack
# ----------------------------------------------------------------------
def test_knapsack_basic():
    kept = solve_knapsack([10.0, 40.0, 30.0, 50.0],
                          [5_000, 4_000, 6_000, 3_000],
                          capacity=10_000, granularity=1_000)
    assert kept == [1, 3]


def test_knapsack_empty_and_zero_capacity():
    assert solve_knapsack([], [], 1000) == []
    assert solve_knapsack([1.0], [500], 0) == []


def test_knapsack_zero_size_items_always_kept():
    kept = solve_knapsack([1.0, 5.0], [0, 10_000], capacity=1_000)
    assert 0 in kept


def test_knapsack_rejects_mismatched_inputs():
    with pytest.raises(CacheError):
        solve_knapsack([1.0], [1, 2], 10)
    with pytest.raises(CacheError):
        solve_knapsack([1.0], [-1], 10)
    with pytest.raises(CacheError):
        solve_knapsack([1.0], [1], -5)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=0.1, max_value=100.0),
                          st.integers(min_value=1, max_value=50)),
                min_size=1, max_size=12),
       st.integers(min_value=0, max_value=200))
def test_knapsack_matches_exact_at_unit_granularity(items, capacity):
    utilities = [value for value, _size in items]
    sizes = [size for _value, size in items]
    dp_selection = solve_knapsack(utilities, sizes, capacity, granularity=1)
    exact_selection = solve_knapsack_exact(utilities, sizes, capacity)
    assert total_size(sizes, dp_selection) <= capacity
    assert total_value(utilities, dp_selection) == pytest.approx(
        total_value(utilities, exact_selection))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=0.1, max_value=100.0),
                          st.integers(min_value=1, max_value=500_000)),
                min_size=1, max_size=40),
       st.integers(min_value=0, max_value=5_000_000))
def test_knapsack_quantized_is_feasible(items, capacity):
    utilities = [value for value, _size in items]
    sizes = [size for _value, size in items]
    selection = solve_knapsack(utilities, sizes, capacity)
    assert total_size(sizes, selection) <= capacity


def reference_solve_knapsack(utilities, sizes, capacity,
                             granularity=DEFAULT_GRANULARITY):
    """The keep-side DP over every capacity unit, in numpy: the oracle
    `solve_knapsack` must match index for index."""
    free_items = [index for index, size in enumerate(sizes) if size == 0]
    candidates = [(index, utilities[index],
                   math.ceil(sizes[index] / granularity))
                  for index, size in enumerate(sizes) if size > 0]
    units = capacity // granularity
    if units == 0 or not candidates:
        return sorted(free_items)
    feasible = [(index, value, weight) for index, value, weight in candidates
                if weight <= units and value > 0]
    if not feasible:
        return sorted(free_items)
    dp = np.zeros(units + 1, dtype=np.float64)
    keep = np.zeros((len(feasible), units + 1), dtype=np.bool_)
    for row, (_index, value, weight) in enumerate(feasible):
        shifted = np.empty_like(dp)
        shifted[:weight] = -np.inf
        shifted[weight:] = dp[:units + 1 - weight] + value
        take = shifted > dp
        keep[row] = take
        dp = np.where(take, shifted, dp)
    chosen = []
    remaining = units
    for row in range(len(feasible) - 1, -1, -1):
        if keep[row, remaining]:
            index, _value, weight = feasible[row]
            chosen.append(index)
            remaining -= weight
    return sorted(free_items + chosen)


#: Utilities that tie, vanish, or are too small to change a float sum
#: next to 1e16: the cases where a reformulated DP could choose a
#: different set of equal (rounded) value.
_TIED_UTILITIES = (0.0, 0.1, 0.2, 0.3, 1.0, 3.0, 1e-300, 1e16)
_UTILITIES = st.one_of(
    st.sampled_from(_TIED_UTILITIES),
    st.floats(min_value=-1.0, max_value=1e6, allow_nan=False))
_AP_CAPACITY = 5 * 1024 * 1024


def _knapsack_case(items, capacity, granularity):
    utilities = [value for value, _size in items]
    sizes = [size for _value, size in items]
    assert solve_knapsack(utilities, sizes, capacity, granularity) == \
        reference_solve_knapsack(utilities, sizes, capacity, granularity)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_UTILITIES, st.one_of(
    st.just(0),
    st.integers(min_value=1, max_value=256 * 1024),
    st.integers(min_value=_AP_CAPACITY, max_value=2 * _AP_CAPACITY))),
    max_size=200),
    st.one_of(st.just(_AP_CAPACITY),
              st.integers(min_value=0, max_value=2 * DEFAULT_GRANULARITY),
              st.integers(min_value=0, max_value=4 * _AP_CAPACITY)))
# Tied utilities: four 3-unit items, room for two.
@example([(1.0, 3 * 4096)] * 4, 7 * 4096)
# Zero sizes, zero utilities and an item larger than the capacity.
@example([(0.0, 0), (2.0, 0), (0.0, 4096), (5.0, 9 * 4096), (1.0, 4096)],
         4 * 4096)
# Demand <= 0, with a utility too small to change the float sum.
@example([(1e16, 4096), (1.0, 4096), (0.3, 4096)], _AP_CAPACITY)
# Capacity below one granularity unit.
@example([(1.0, 1), (2.0, 0)], DEFAULT_GRANULARITY - 1)
def test_knapsack_matches_numpy_reference_at_ap_granularity(items, capacity):
    _knapsack_case(items, capacity, DEFAULT_GRANULARITY)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_UTILITIES, st.integers(min_value=0,
                                                   max_value=60)),
                max_size=200),
       st.integers(min_value=0, max_value=3_000))
@example([(0.1, 1), (0.2, 1), (0.3, 2)], 2)
@example([(1.0, 5), (1.0, 0), (0.0, 1)], 0)
def test_knapsack_matches_numpy_reference_at_unit_granularity(items,
                                                              capacity):
    _knapsack_case(items, capacity, 1)


# ----------------------------------------------------------------------
# PACM selection
# ----------------------------------------------------------------------
def test_utility_formula():
    entry = make_entry("http://a/1", 100, priority=2, ttl=120.0,
                       latency=0.040)
    assert utility_of(entry, frequency=3.0, now=0.0) == \
        pytest.approx(3.0 * 120.0 * 0.040 * 2)


def test_utility_zero_after_expiry():
    entry = make_entry("http://a/1", 100, ttl=10.0)
    assert utility_of(entry, frequency=3.0, now=20.0) == 0.0


def test_select_keep_set_prefers_high_priority():
    high = make_entry("http://a/high", 1000, priority=2)
    low = make_entry("http://a/low", 1000, priority=1)
    kept = select_keep_set([high, low], capacity_bytes=1000,
                           frequency_of=lambda _a: 3.0, now=0.0,
                           granularity=100)
    assert kept == [high]


def test_select_keep_set_drops_expired():
    dead = make_entry("http://a/dead", 100, ttl=5.0)
    alive = make_entry("http://a/alive", 100, ttl=600.0)
    kept = select_keep_set([dead, alive], capacity_bytes=10_000,
                           frequency_of=lambda _a: 1.0, now=10.0)
    assert kept == [alive]


def test_select_keep_set_negative_capacity():
    entry = make_entry("http://a/x", 100)
    assert select_keep_set([entry], capacity_bytes=-1,
                           frequency_of=lambda _a: 1.0, now=0.0) == []


def test_fairness_repair_breaks_ties_the_same_way_in_any_entry_order():
    # Three apps with equal frequencies and two 100-byte entries each:
    # 500 bytes keep five, the app left with one entry is under-served
    # and the other two tie on storage efficiency.  The repair must
    # shed from the same app whatever order the entries arrive in.
    latencies = iter((0.09, 0.08, 0.07, 0.06, 0.05, 0.04))
    entries = [make_entry(f"http://{app}/{i}", 100, app=app,
                          latency=next(latencies))
               for app in "abc" for i in range(2)]
    keep_sets = {
        frozenset(entry.url for entry in select_keep_set(
            list(order), capacity_bytes=500,
            frequency_of=lambda _app: 1.0, now=0.0,
            fairness_threshold=0.1))
        for order in itertools.permutations(entries)}
    assert len(keep_sets) == 1


def test_fairness_repair_rebalances_apps():
    # One over-served app hogging space with low request frequency.
    hog_entries = [make_entry(f"http://hog/{i}", 2000, app="hog",
                              priority=2, latency=0.050)
                   for i in range(4)]
    busy_entries = [make_entry(f"http://busy/{i}", 1000, app="busy",
                               priority=1, latency=0.020)
                    for i in range(4)]
    frequencies = {"hog": 0.2, "busy": 12.0}
    kept_strict = select_keep_set(
        hog_entries + busy_entries, capacity_bytes=6000,
        frequency_of=frequencies.get, now=0.0,
        fairness_threshold=0.05, granularity=500)
    kept_loose = select_keep_set(
        hog_entries + busy_entries, capacity_bytes=6000,
        frequency_of=frequencies.get, now=0.0,
        fairness_threshold=1.0, granularity=500)

    def busy_share(kept):
        busy = sum(e.size_bytes for e in kept if e.app_id == "busy")
        total = sum(e.size_bytes for e in kept)
        return busy / total if total else 0.0

    assert busy_share(kept_strict) >= busy_share(kept_loose)


def test_pacm_policy_evicts_lowest_utility():
    tracker = RequestFrequencyTracker(window_s=60.0)
    for _ in range(12):
        tracker.observe("hot", now=1.0)
    tracker.observe("cold", now=1.0)
    tracker._maybe_recalculate(61.0)

    store = CacheStore(2_000)
    policy = PacmPolicy(tracker)
    store.admit(make_entry("http://hot/1", 1000, app="hot", priority=2),
                policy, now=61.0)
    store.admit(make_entry("http://cold/1", 1000, app="cold", priority=1),
                policy, now=61.0)
    result = store.admit(
        make_entry("http://hot/2", 1000, app="hot", priority=2),
        policy, now=62.0)
    assert result.admitted
    assert {entry.url for entry in result.evicted} == {"http://cold/1"}


def test_pacm_policy_rejects_impossible_incoming():
    tracker = RequestFrequencyTracker()
    policy = PacmPolicy(tracker)
    store = CacheStore(1_000)
    victims = policy.select_victims(
        store, make_entry("http://a/too-big", 5_000), now=0.0)
    assert victims is None


def test_pacm_policy_threshold_validation():
    with pytest.raises(ConfigError):
        PacmPolicy(RequestFrequencyTracker(), fairness_threshold=1.5)


@settings(max_examples=40, deadline=None)
@given(st.lists(
    st.tuples(st.integers(min_value=1, max_value=100_000),  # size
              st.integers(min_value=1, max_value=2),        # priority
              st.integers(min_value=0, max_value=4),        # app index
              st.floats(min_value=0.001, max_value=0.2)),   # latency
    min_size=1, max_size=25),
    st.integers(min_value=10_000, max_value=500_000))
def test_select_keep_set_always_fits_property(items, capacity):
    entries = [make_entry(f"http://app{app}/{index}", size,
                          app=f"app{app}", priority=priority,
                          latency=latency)
               for index, (size, priority, app, latency)
               in enumerate(items)]
    frequencies = {f"app{index}": 1.0 + index for index in range(5)}
    kept = select_keep_set(entries, capacity,
                           frequency_of=lambda a: frequencies[a], now=0.0)
    assert sum(entry.size_bytes for entry in kept) <= capacity
    assert len(set(id(entry) for entry in kept)) == len(kept)


def reference_select_keep_set(entries, capacity_bytes, frequency_of, now,
                              fairness_threshold=0.4,
                              granularity=DEFAULT_GRANULARITY):
    """The repair loop written over entries (``list.remove``, value
    equality) on the numpy DP: the oracle `select_keep_set` must match
    entry for entry."""
    if capacity_bytes < 0:
        return []
    live = [entry for entry in entries if not entry.is_expired(now)]
    if not live:
        return []
    utilities = [utility_of(entry, frequency_of(entry.app_id), now)
                 for entry in live]
    sizes = [entry.size_bytes for entry in live]
    effective_granularity = max(1, min(granularity, capacity_bytes // 512))
    kept_indices = reference_solve_knapsack(utilities, sizes, capacity_bytes,
                                            effective_granularity)
    kept = [live[index] for index in kept_indices]
    rejected = [live[index] for index in range(len(live))
                if index not in set(kept_indices)]
    utility_by_id = {id(entry): utility
                     for entry, utility in zip(live, utilities)}

    def efficiencies_of(held):
        usage = {}
        for entry in held:
            usage[entry.app_id] = usage.get(entry.app_id, 0) + \
                entry.size_bytes
        return {app: size / max(frequency_of(app), MIN_FREQUENCY)
                for app, size in usage.items()}

    for _ in range(len(live)):
        efficiencies = efficiencies_of(kept)
        if len(efficiencies) <= 1 or \
                gini(list(efficiencies.values())) <= fairness_threshold:
            break
        over_served = max(sorted(efficiencies), key=efficiencies.get)
        victim = min(
            [entry for entry in kept if entry.app_id == over_served],
            key=lambda entry:
                utility_by_id[id(entry)] / max(entry.size_bytes, 1))
        kept.remove(victim)
        rejected.append(victim)
        spare = capacity_bytes - sum(entry.size_bytes for entry in kept)
        backfill = sorted(
            (entry for entry in rejected
             if entry.app_id != over_served and
             entry.size_bytes <= spare),
            key=lambda entry: utility_by_id[id(entry)], reverse=True)
        for entry in backfill:
            if entry.size_bytes <= spare:
                kept.append(entry)
                rejected.remove(entry)
                spare -= entry.size_bytes
    return kept


_APP_FREQUENCIES = (0.0, 0.1, 1.0, 10.0, 50.0)


def skewed_catalog(rng, count, apps=4):
    """``count`` distinct entries over ``apps`` apps whose request rates
    differ by orders of magnitude, so the Gini repair runs; about half
    of such catalogs reach the round cap."""
    frequencies = {f"app{app}": rng.choice(_APP_FREQUENCIES)
                   for app in range(apps)}
    entries = [make_entry(f"http://app{app}/{index}",
                          rng.randint(0, 200_000), app=f"app{app}",
                          priority=rng.randint(1, 2),
                          ttl=rng.uniform(1.0, 600.0),
                          latency=rng.uniform(0.001, 0.1))
               for index, app in enumerate(rng.randrange(apps)
                                           for _ in range(count))]
    return entries, frequencies


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32),
       st.integers(min_value=0, max_value=60),
       st.integers(min_value=2, max_value=6),
       st.floats(min_value=0.0, max_value=1.0),
       st.sampled_from((0.0, 0.1, 0.4, 1.0)),
       st.sampled_from((0.0, 30.0)))
def test_select_keep_set_matches_entry_based_reference(
        seed, count, apps, fill, threshold, now):
    rng = random.Random(seed)
    entries, frequencies = skewed_catalog(rng, count, apps)
    capacity = int(fill * sum(entry.size_bytes for entry in entries))
    kept = select_keep_set(entries, capacity, frequencies.get, now,
                           fairness_threshold=threshold)
    expected = reference_select_keep_set(entries, capacity, frequencies.get,
                                         now, fairness_threshold=threshold)
    assert [id(entry) for entry in kept] == \
        [id(entry) for entry in expected]


def full_store_at_round_cap():
    """A full store of 40 entries from seed 1, whose PACM selection
    runs the Gini repair to its cap; an incoming entry; the tracker."""
    entries, frequencies = skewed_catalog(random.Random(1), 40)
    tracker = RequestFrequencyTracker()
    tracker._estimates.update(frequencies)
    store = CacheStore(sum(entry.size_bytes for entry in entries))
    for entry in entries:
        store.admit(entry, LruPolicy(), now=0.0)
    return store, make_entry("http://app0/incoming", 150_000, app="app0"), \
        tracker


def reference_victims(store, incoming, tracker):
    kept_ids = {id(entry) for entry in reference_select_keep_set(
        store.entries(), store.capacity_bytes - incoming.size_bytes,
        tracker.frequency, 0.0)}
    return [id(entry) for entry in store.entries()
            if id(entry) not in kept_ids]


def test_repair_rounds_histogram_records_the_cap():
    store, incoming, tracker = full_store_at_round_cap()
    telemetry = Telemetry()
    policy = PacmPolicy(tracker, telemetry=telemetry)
    victims = policy.select_victims(store, incoming, now=0.0)
    assert [id(entry) for entry in victims] == \
        reference_victims(store, incoming, tracker)
    rounds = telemetry.get("pacm.repair_rounds").summary()
    assert rounds["count"] == 1
    # Nothing has expired, so every stored entry is live, and the
    # repair ran its cap of one round per live entry.
    assert rounds["max"] == float(len(store))


def test_pacm_never_compares_entries(monkeypatch):
    """The repair works on indices: comparing entries field by field on
    every shed and back-fill was most of PACM's cost."""
    store, incoming, tracker = full_store_at_round_cap()
    expected = reference_victims(store, incoming, tracker)

    def no_comparisons(self, other):
        raise AssertionError("CacheEntry compared by value")

    monkeypatch.setattr(CacheEntry, "__eq__", no_comparisons)
    kept = select_keep_set(store.entries(),
                           store.capacity_bytes - incoming.size_bytes,
                           tracker.frequency, now=0.0)
    assert len(kept) < len(store)
    victims = PacmPolicy(tracker).select_victims(store, incoming, now=0.0)
    assert [id(entry) for entry in victims] == expected


def test_pacm_vs_lru_priority_hit_scenario():
    """PACM should retain high-priority objects that LRU would evict."""
    tracker = RequestFrequencyTracker(window_s=60.0)
    for app in ("a", "b"):
        for _ in range(6):
            tracker.observe(app, now=1.0)
    tracker._maybe_recalculate(61.0)

    def run(policy_factory):
        store = CacheStore(4_000)
        policy = policy_factory()
        now = 61.0
        high = make_entry("http://a/critical", 2000, app="a", priority=2,
                          latency=0.050, stored=now)
        store.admit(high, policy, now)
        # A stream of low-priority objects arrives afterwards.
        for index in range(6):
            now += 1.0
            entry = make_entry(f"http://b/filler{index}", 1500, app="b",
                               priority=1, latency=0.020, stored=now)
            store.admit(entry, policy, now)
        return "http://a/critical" in store

    assert run(lambda: PacmPolicy(tracker))      # PACM keeps the critical
    assert not run(LruPolicy)                    # LRU lets it churn out
