"""Property-based invariants of the cache store under random workloads."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import (
    CacheEntry,
    CacheStore,
    FifoPolicy,
    LfuPolicy,
    LruPolicy,
    PacmPolicy,
    RequestFrequencyTracker,
)
from repro.errors import CapacityError
from repro.httplib import DataObject

KB = 1024

operations = st.lists(
    st.tuples(
        st.sampled_from(["admit", "admit", "get", "sweep", "remove",
                         "clear"]),
        st.integers(min_value=0, max_value=14),       # object index
        st.integers(min_value=1, max_value=40 * KB),  # size
        st.integers(min_value=5, max_value=600),      # ttl seconds
        st.integers(min_value=1, max_value=2),        # priority
    ),
    min_size=1, max_size=60)

policies = st.sampled_from(["lru", "lfu", "fifo", "pacm"])


def assert_host_index_mirrors_entries(store):
    """The per-host index is `_entries`, partitioned: same entries, same
    relative order, and no emptied host left behind."""
    merged = {}
    for host, same_host in store._by_host.items():
        assert same_host, f"empty map left behind for {host!r}"
        assert all(store._locate(key) == (host, key) for key in same_host)
        assert list(same_host) == [key for key in store._entries
                                   if key in same_host]
        merged.update(same_host)
    assert merged.keys() == store._entries.keys()
    assert all(merged[key] is entry
               for key, entry in store._entries.items())


def make_policy(name):
    if name == "pacm":
        tracker = RequestFrequencyTracker()
        for app in range(3):
            tracker.observe(f"app{app}", now=0.0, count=app + 1)
        return PacmPolicy(tracker)
    return {"lru": LruPolicy, "lfu": LfuPolicy,
            "fifo": FifoPolicy}[name]()


@settings(max_examples=60, deadline=None)
@given(operations, policies)
def test_store_invariants_under_random_operations(ops, policy_name):
    capacity = 64 * KB
    store = CacheStore(capacity)
    policy = make_policy(policy_name)
    now = 0.0
    for action, index, size, ttl, priority in ops:
        now += 1.0
        # Three hosts, each spelt three ways: mixed case is the same
        # key, a trailing dot another key under the same host.
        host = (f"app{index % 3}.example", f"App{index % 3}.Example",
                f"app{index % 3}.example.")[size % 3]
        url = f"http://{host}/obj{index}"
        if action == "admit":
            entry = CacheEntry(DataObject(url, size),
                               app_id=f"app{index % 3}",
                               priority=priority, stored_at=now,
                               expires_at=now + ttl,
                               fetch_latency_s=0.03)
            try:
                store.admit(entry, policy, now)
            except CapacityError:
                assert size > capacity
        elif action == "get":
            fetched = store.get(url, now)
            if fetched is not None:
                assert not fetched.is_expired(now)
        elif action == "remove":
            store.remove(url)
            assert url not in store
        elif action == "clear":
            store.clear()
            assert len(store) == 0
        else:
            for swept in store.sweep_expired(now):
                assert swept.is_expired(now)

        # Core invariants, checked after every operation:
        assert_host_index_mirrors_entries(store)
        assert 0 <= store.used_bytes <= capacity
        assert store.used_bytes == sum(entry.size_bytes
                                       for entry in store.entries())
        urls = [entry.url for entry in store.entries()]
        assert len(urls) == len(set(urls))


@settings(max_examples=40, deadline=None)
@given(operations)
def test_lru_and_pacm_agree_when_capacity_is_ample(ops):
    """With no eviction pressure, policy choice cannot change contents."""
    capacity = 100 * 40 * KB  # everything always fits
    stores = {name: CacheStore(capacity) for name in ("lru", "pacm")}
    policies_by_name = {name: make_policy(name) for name in stores}
    now = 0.0
    for action, index, size, ttl, priority in ops:
        now += 1.0
        url = f"http://app{index % 3}.example/obj{index}"
        for name, store in stores.items():
            if action == "admit":
                entry = CacheEntry(DataObject(url, size),
                                   app_id=f"app{index % 3}",
                                   priority=priority, stored_at=now,
                                   expires_at=now + ttl,
                                   fetch_latency_s=0.03)
                store.admit(entry, policies_by_name[name], now)
            elif action == "get":
                store.get(url, now)
            elif action == "remove":
                store.remove(url)
            elif action == "clear":
                store.clear()
            else:
                store.sweep_expired(now)
    lru_urls = {entry.url for entry in stores["lru"].entries()}
    pacm_urls = {entry.url for entry in stores["pacm"].entries()}
    assert lru_urls == pacm_urls


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=30 * KB),
                min_size=1, max_size=40))
def test_eviction_count_matches_departures(sizes):
    store = CacheStore(64 * KB)
    policy = LruPolicy()
    admitted = 0
    for index, size in enumerate(sizes):
        entry = CacheEntry(
            DataObject(f"http://a.example/o{index}", size),
            app_id="a", priority=1, stored_at=float(index),
            expires_at=float(index) + 10_000.0, fetch_latency_s=0.01)
        result = store.admit(entry, policy, float(index))
        if result.admitted:
            admitted += 1
    assert len(store) == admitted - store.evictions
