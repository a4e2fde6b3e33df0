"""End-to-end tests of the APE-CACHE AP and client runtimes."""

import pytest

from repro.core import (
    ApRuntime,
    ApeCacheConfig,
    CacheFlag,
    CacheableSpec,
    invoke_http_request_async,
)
from repro.core.client_runtime import ClientRuntime
from repro.errors import ConfigError
from repro.net import DUMMY_IP
from repro.sim import MINUTE, MS
from repro.testbed import Testbed, TestbedConfig


KB = 1024


def make_bed(config=None, ape_config=None):
    bed = Testbed(config or TestbedConfig(jitter_fraction=0.0))
    ap_runtime = ApRuntime(bed.ap, bed.transport, bed.ldns.address,
                           config=ape_config or ApeCacheConfig())
    ap_runtime.install()
    client_node = bed.add_client("phone")
    runtime = ClientRuntime(client_node, bed.transport, bed.ap.address,
                            app_id="movietrailer")
    return bed, ap_runtime, runtime


def declare(bed, runtime, url, size, priority=1, ttl_minutes=30,
            origin_delay=0.0):
    bed.host_object(url, size, origin_delay_s=origin_delay)
    runtime.register_spec(CacheableSpec(url, priority, ttl_minutes * MINUTE))


def run_fetch(bed, runtime, url):
    return bed.sim.run(until=bed.sim.process(runtime.fetch(url)))


def test_first_fetch_is_delegated_then_hit():
    bed, ap, runtime = make_bed()
    declare(bed, runtime, "http://app1.example/obj", 10 * KB)

    first = run_fetch(bed, runtime, "http://app1.example/obj")
    assert first.source == "ap-delegated"
    assert first.flag == CacheFlag.DELEGATION
    assert first.data_object is not None
    assert ap.delegations == 1
    assert "http://app1.example/obj" in ap.store

    runtime.flush()  # force a fresh DNS-Cache lookup
    second = run_fetch(bed, runtime, "http://app1.example/obj")
    assert second.source == "ap-hit"
    assert second.flag == CacheFlag.CACHE_HIT
    assert ap.hits_served == 1


def test_hit_latency_is_millisecond_level():
    bed, _ap, runtime = make_bed()
    declare(bed, runtime, "http://app1.example/obj", 10 * KB)
    run_fetch(bed, runtime, "http://app1.example/obj")
    runtime.flush()
    hit = run_fetch(bed, runtime, "http://app1.example/obj")
    # Lookup + retrieval against the AP one WiFi hop away.
    assert hit.total_latency_s < 15 * MS
    assert hit.lookup_latency_s < 5 * MS


def test_delegated_fetch_slower_than_hit_but_single_round():
    bed, _ap, runtime = make_bed()
    declare(bed, runtime, "http://app1.example/obj", 10 * KB)
    first = run_fetch(bed, runtime, "http://app1.example/obj")
    runtime.flush()
    second = run_fetch(bed, runtime, "http://app1.example/obj")
    assert first.total_latency_s > second.total_latency_s


def test_dummy_ip_short_circuit_when_all_cached():
    bed, _ap, runtime = make_bed()
    declare(bed, runtime, "http://app1.example/obj", 10 * KB)
    run_fetch(bed, runtime, "http://app1.example/obj")
    runtime.flush()

    def probe():
        state = yield from runtime.lookup("app1.example")
        return state

    state = bed.sim.run(until=bed.sim.process(probe()))
    assert state.address == DUMMY_IP
    # TTL 0 answers must not be cached by the client.
    assert "app1.example" not in runtime._domain_flags


def test_mixed_domain_flags_use_real_ip():
    bed, _ap, runtime = make_bed()
    declare(bed, runtime, "http://app1.example/cached", 10 * KB)
    declare(bed, runtime, "http://app1.example/uncached", 10 * KB)
    run_fetch(bed, runtime, "http://app1.example/cached")
    runtime.flush()

    def probe():
        state = yield from runtime.lookup("app1.example")
        return state

    state = bed.sim.run(until=bed.sim.process(probe()))
    assert state.address == bed.edge.address
    assert state.flags[_hash("http://app1.example/cached")] == \
        CacheFlag.CACHE_HIT
    assert state.flags[_hash("http://app1.example/uncached")] == \
        CacheFlag.DELEGATION


def _hash(url):
    from repro.dnslib import hash_url
    return hash_url(url)


def test_batching_single_lookup_covers_domain():
    bed, _ap, runtime = make_bed()
    declare(bed, runtime, "http://app1.example/a", 10 * KB)
    declare(bed, runtime, "http://app1.example/b", 10 * KB)

    def scenario():
        first = yield from runtime.fetch("http://app1.example/a")
        second = yield from runtime.fetch("http://app1.example/b")
        return first, second

    first, second = bed.sim.run(until=bed.sim.process(scenario()))
    # Second fetch reuses the flag table: no second DNS-Cache query.
    assert runtime.dns_cache_queries == 1
    assert second.lookup_latency_s == 0.0
    assert second.used_cached_flags


def test_blocklisted_large_object_yields_cache_miss_then_edge():
    config = ApeCacheConfig(blocklist_threshold_bytes=500 * KB)
    bed, ap, runtime = make_bed(ape_config=config)
    declare(bed, runtime, "http://app1.example/huge", 600 * KB)

    first = run_fetch(bed, runtime, "http://app1.example/huge")
    assert first.source == "ap-delegated"
    assert ap.blocked_objects == 1
    assert "http://app1.example/huge" not in ap.store

    runtime.flush()
    second = run_fetch(bed, runtime, "http://app1.example/huge")
    assert second.flag == CacheFlag.CACHE_MISS
    assert second.source == "edge"
    assert second.data_object is not None


def test_expired_ap_entry_redelegated():
    bed, ap, runtime = make_bed()
    declare(bed, runtime, "http://app1.example/obj", 10 * KB,
            ttl_minutes=1.0)
    run_fetch(bed, runtime, "http://app1.example/obj")
    bed.sim.run(until=bed.sim.now + 2 * MINUTE)
    runtime.flush()
    result = run_fetch(bed, runtime, "http://app1.example/obj")
    assert result.flag == CacheFlag.DELEGATION
    assert result.source == "ap-delegated"
    assert ap.delegations == 2


def test_stale_client_flags_still_served_by_ap():
    bed, ap, runtime = make_bed()
    declare(bed, runtime, "http://app1.example/a", 10 * KB)
    declare(bed, runtime, "http://app1.example/b", 10 * KB)
    # Fetch `a` (delegation), leaving flags cached; evict behind the
    # client's back, then fetch `a` again within the flag TTL.
    run_fetch(bed, runtime, "http://app1.example/a")
    run_fetch(bed, runtime, "http://app1.example/a")  # upgrade to hit path
    ap.store.remove("http://app1.example/a")
    result = run_fetch(bed, runtime, "http://app1.example/a")
    assert result.data_object is not None
    assert ap.stale_fetches >= 1


def test_unregistered_url_rejected():
    bed, _ap, runtime = make_bed()
    with pytest.raises(ConfigError):
        run_fetch(bed, runtime, "http://never.example/x")


def test_interceptor_transparent_app_code():
    bed, ap, runtime = make_bed()
    declare(bed, runtime, "http://app1.example/obj", 10 * KB)
    runtime.install_interceptor()

    def app_logic():
        # Unmodified application code: a plain HTTP GET by URL.
        response = yield from runtime.http.get(
            "http://app1.example/obj?user=42")
        return response

    response = bed.sim.run(until=bed.sim.process(app_logic()))
    assert response.ok
    assert response.body.url == "http://app1.example/obj"
    assert ap.delegations == 1


def test_interceptor_passthrough_for_non_cacheable():
    bed, _ap, runtime = make_bed()
    bed.host_object("http://plain.example/page", 5 * KB)
    runtime.install_interceptor()

    def app_logic():
        response = yield from runtime.http.get("http://plain.example/page")
        return response

    response = bed.sim.run(until=bed.sim.process(app_logic()))
    assert response.ok
    assert runtime.dns_cache_queries == 0


def test_api_based_model_equivalent_result():
    bed, ap, runtime = make_bed()
    bed.host_object("http://app1.example/obj", 10 * KB)

    def scenario():
        result = yield from invoke_http_request_async(
            runtime, "http://app1.example/obj", priority=2, ttl_minutes=30)
        return result

    result = bed.sim.run(until=bed.sim.process(scenario()))
    assert result.data_object is not None
    assert ap.delegations == 1
    entry = ap.store.peek("http://app1.example/obj")
    assert entry.priority == 2


def test_ap_frequency_tracking_sees_app_requests():
    bed, ap, runtime = make_bed()
    declare(bed, runtime, "http://app1.example/obj", 10 * KB)
    for _ in range(5):
        runtime.flush()
        run_fetch(bed, runtime, "http://app1.example/obj")
    assert ap.tracker.frequency("movietrailer", bed.sim.now) > 0


def test_plain_dns_still_works_through_ape_ap():
    bed, ap, runtime = make_bed()
    bed.host_object("http://plain.example/page", 5 * KB)

    def app_logic():
        response = yield from runtime.http.get("http://plain.example/page")
        return response

    response = bed.sim.run(until=bed.sim.process(app_logic()))
    assert response.ok
    assert ap.plain_dns_queries >= 1
    assert ap.dns_cache_queries == 0


def test_memory_accounting_grows_with_cache():
    bed, ap, runtime = make_bed()
    baseline = ap.memory_bytes()
    declare(bed, runtime, "http://app1.example/obj", 100 * KB)
    run_fetch(bed, runtime, "http://app1.example/obj")
    assert ap.memory_bytes() >= baseline + 100 * KB


# ----------------------------------------------------------------------
# Work done once per domain and per store generation
# ----------------------------------------------------------------------
def _sent_queries(runtime):
    """Wrap the stub resolver so every query it sends is recorded."""
    sent = []
    exchange = runtime.resolver.exchange

    def recording(query):
        sent.append(query)
        response = yield from exchange(query)
        return response

    runtime.resolver.exchange = recording
    return sent


def test_query_built_once_is_the_message_the_old_path_encoded():
    from repro.dnslib import CacheLookupRdata, Message, RRClass, RRType

    bed, _ap, runtime = make_bed()
    for name in ("a", "b"):
        declare(bed, runtime, f"http://app1.example/{name}", KB)
    declare(bed, runtime, "http://app2.example/c", KB)
    sent = _sent_queries(runtime)

    def lookups():
        for domain in ("app1.example", "app1.example", "app2.example"):
            runtime.flush()
            yield from runtime.lookup(domain)

    def built_per_lookup(domain, message_id):
        query = Message.query(domain, RRType.A, message_id=message_id)
        rdata = CacheLookupRdata()
        for spec in runtime.specs_for_domain(domain):
            rdata.add_url(spec.base_url)
        query.attach_cache_lookup(rdata, RRClass.REQUEST)
        return query.encode()

    bed.sim.run(until=bed.sim.process(lookups()))
    ids = [int.from_bytes(wire[:2], "big") for wire in sent]
    assert ids == sorted(set(ids))          # a fresh ID every time
    assert sent == [built_per_lookup(domain, message_id) for domain,
                    message_id in zip(("app1.example", "app1.example",
                                       "app2.example"), ids)]

    # A spec added under a domain rebuilds that domain's query only.
    declare(bed, runtime, "http://app1.example/d", KB)
    assert "app1.example" not in runtime._queries
    assert "app2.example" in runtime._queries
    runtime.flush()
    bed.sim.run(until=bed.sim.process(runtime.lookup("app1.example")))
    assert sent[-1] == built_per_lookup(
        "app1.example", int.from_bytes(sent[-1][:2], "big"))
    assert len(Message.decode(sent[-1]).cache_lookup(RRClass.REQUEST)) == 3


def test_repeated_all_hit_query_is_answered_from_the_stored_bytes():
    bed, ap, runtime = make_bed()
    urls = [f"http://app1.example/{name}" for name in "abc"]
    for url in urls:
        declare(bed, runtime, url, KB)
        run_fetch(bed, runtime, url)
    answered = []
    for _ in range(3):
        runtime.flush()
        answered.append(run_fetch(bed, runtime, urls[0]))
    assert [result.source for result in answered] == ["ap-hit"] * 3
    assert len(ap._answers) == 1
    (answer,) = ap._answers.values()
    assert answer.all_hit and answer.wire is not None
    # Same CPU charged and queries counted as a freshly built answer.
    assert ap.dns_cache_queries == runtime.dns_cache_queries


def ap_tables(ap):
    """Every container the AP runtime and its store keep."""
    for owner in (ap, ap.store):
        for name, value in vars(owner).items():
            if isinstance(value, (dict, list, set)):
                yield f"{type(owner).__name__}.{name}", value


def test_ap_tables_stay_within_the_store_over_a_catalog_100x_the_cache():
    """The AP's state is bounded by what it caches, not by every URL it
    has ever seen: a hash leaves with its entry."""
    bed, ap, runtime = make_bed(ape_config=ApeCacheConfig(
        cache_capacity_bytes=32 * KB))
    # 400 objects of 8 KB: a catalog 100 times the cache.
    urls = [f"http://bigapp.example/obj{index}" for index in range(400)]
    for url in urls:
        declare(bed, runtime, url, 8 * KB)
    for number, url in enumerate(urls + urls[::7]):
        if number % 50 == 0:
            runtime.flush()         # now and then a fresh DNS-Cache query
        assert run_fetch(bed, runtime, url).data_object is not None
        for name, table in ap_tables(ap):
            assert len(table) <= max(len(ap.store), 1), name
    assert ap.store.evictions > 300
