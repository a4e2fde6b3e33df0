"""Direct tests of the baseline systems' moving parts."""

import struct

import pytest

from repro.baselines import (
    ApeCacheLruSystem,
    ApeCacheSystem,
    EdgeCacheSystem,
    WiCacheSystem,
    all_systems,
)
from repro.cache.policies import LruPolicy
from repro.cache.pacm import PacmPolicy
from repro.core.annotations import CacheableSpec
from repro.dnslib import hash_url
from repro.errors import ConfigError, TransportError
from repro.sim import HOUR, MS
from repro.testbed import Testbed, TestbedConfig

KB = 1024


def make_bed():
    return Testbed(TestbedConfig(jitter_fraction=0.0))


def run_fetch(bed, fetcher, url):
    def proc():
        result = yield from fetcher.fetch(url)
        return result

    return bed.sim.run(until=bed.sim.process(proc()))


# ----------------------------------------------------------------------
# System factory
# ----------------------------------------------------------------------
def test_all_systems_order_and_names():
    names = [system.name for system in all_systems()]
    assert names == ["APE-CACHE", "APE-CACHE-LRU", "Wi-Cache",
                     "Edge Cache"]


def test_ape_systems_pick_correct_policies():
    bed = make_bed()
    ape = ApeCacheSystem()
    ape.install(bed)
    assert isinstance(ape.ap_runtime.policy, PacmPolicy)

    bed2 = make_bed()
    lru = ApeCacheLruSystem()
    lru.install(bed2)
    assert isinstance(lru.ap_runtime.policy, LruPolicy)


def test_fetcher_requires_install():
    bed = make_bed()
    node = bed.add_client("phone")
    with pytest.raises(ConfigError):
        ApeCacheSystem().new_fetcher(bed, node, "app")
    with pytest.raises(TransportError):
        WiCacheSystem().new_fetcher(bed, node, "app")


# ----------------------------------------------------------------------
# Edge Cache fetcher
# ----------------------------------------------------------------------
def test_edge_fetcher_records_metrics_and_caches_dns():
    bed = make_bed()
    system = EdgeCacheSystem()
    system.install(bed)
    node = bed.add_client("phone")
    fetcher = system.new_fetcher(bed, node, "edgeapp")
    url = "http://edgeapp.example/obj"
    bed.host_object(url, 10 * KB)
    fetcher.register_spec(CacheableSpec(url, 1, 1 * HOUR))

    first = run_fetch(bed, fetcher, url)
    second = run_fetch(bed, fetcher, url)
    assert not first.used_cached_flags     # cold resolution
    assert second.used_cached_flags        # stub cache (TTL 5 s)
    assert second.lookup_latency_s == 0.0
    assert fetcher.fetches == 2
    assert not first.cache_hit and not second.cache_hit

    fetcher.flush()
    third = run_fetch(bed, fetcher, url)
    assert not third.used_cached_flags


def test_edge_system_reports_dns_stats():
    bed = make_bed()
    system = EdgeCacheSystem()
    system.install(bed)
    node = bed.add_client("phone")
    fetcher = system.new_fetcher(bed, node, "edgeapp")
    url = "http://edgeapp.example/obj"
    bed.host_object(url, KB)
    run_fetch(bed, fetcher, url)
    stats = system.ap_cache_stats()
    assert stats["dns_queries"] >= 1


# ----------------------------------------------------------------------
# Wi-Cache controller and agent
# ----------------------------------------------------------------------
def wicache_setup():
    bed = make_bed()
    system = WiCacheSystem()
    system.install(bed)
    node = bed.add_client("phone")
    fetcher = system.new_fetcher(bed, node, "wiapp")
    url = "http://wiapp.example/obj"
    bed.host_object(url, 10 * KB)
    fetcher.register_spec(CacheableSpec(url, 1, 1 * HOUR))
    return bed, system, fetcher, url


def test_wicache_miss_then_background_fill_then_hit():
    bed, system, fetcher, url = wicache_setup()
    first = run_fetch(bed, fetcher, url)
    assert first.source == "edge"
    bed.sim.run()  # drain the background fill
    assert system.agent.store.peek(url) is not None
    second = run_fetch(bed, fetcher, url)
    assert second.source == "ap-hit"
    assert second.cache_hit
    assert second.retrieval_latency_s < 10 * MS


def test_wicache_stale_controller_state_falls_back_to_edge():
    bed, system, fetcher, url = wicache_setup()
    run_fetch(bed, fetcher, url)
    bed.sim.run()
    # The AP loses the object but the controller still advertises it.
    system.agent.store.remove(url)
    result = run_fetch(bed, fetcher, url)
    assert result.data_object is not None
    assert result.source == "edge"
    # The failed AP fetch unregistered the stale mapping.
    assert hash_url(url) not in system.controller._locations


def test_wicache_eviction_unregisters_from_controller():
    bed = make_bed()
    system = WiCacheSystem(cache_capacity_bytes=24 * KB)
    system.install(bed)
    node = bed.add_client("phone")
    fetcher = system.new_fetcher(bed, node, "wiapp")
    urls = [f"http://wiapp.example/obj{index}" for index in range(4)]
    for url in urls:
        bed.host_object(url, 10 * KB)
        fetcher.register_spec(CacheableSpec(url, 1, 1 * HOUR))
        run_fetch(bed, fetcher, url)
        bed.sim.run()
    registered = [url for url in urls
                  if hash_url(url) in system.controller._locations]
    cached = [url for url in urls if system.agent.store.peek(url)]
    assert sorted(registered) == sorted(cached)
    assert len(cached) < len(urls)  # evictions happened


def test_wicache_controller_rejects_bad_payload():
    bed, system, _fetcher, _url = wicache_setup()

    def proc():
        yield bed.sim.process(bed.transport.udp_request(
            "phone", bed.controller.address, 5300, b"short"))

    with pytest.raises(TransportError):
        bed.sim.run(until=bed.sim.process(proc()))


def test_wicache_lookup_wire_format():
    bed, system, fetcher, url = wicache_setup()
    run_fetch(bed, fetcher, url)
    bed.sim.run()

    def probe():
        payload = yield bed.sim.process(bed.transport.udp_request(
            "phone", bed.controller.address, 5300, hash_url(url)))
        return payload

    payload = bed.sim.run(until=bed.sim.process(probe()))
    cached_flag, raw = struct.unpack("!B4s", payload)
    assert cached_flag == 1
    from repro.net import IPv4Address
    assert IPv4Address.from_bytes(raw) == bed.ap.address


def test_wicache_every_fetch_contacts_controller():
    bed, system, fetcher, url = wicache_setup()
    for _ in range(3):
        run_fetch(bed, fetcher, url)
    assert system.controller.lookups == 3
