"""AP-runtime internals: flag construction, batching, counters."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheEntry
from repro.core import ApRuntime, ApeCacheConfig, CacheFlag, CacheableSpec
from repro.core.client_runtime import ClientRuntime
from repro.dnslib import hash_url
from repro.dnslib.cache_rr import CacheLookupRdata
from repro.dnslib.message import Message
from repro.dnslib.name import DomainName
from repro.dnslib.rr import ResourceRecord, RRClass, RRType
from repro.dnslib.server import DnsCacheEntry
from repro.httplib import DataObject
from repro.httplib.url import Url
from repro.sim import HOUR, MINUTE
from repro.testbed import Testbed, TestbedConfig

KB = 1024


@pytest.fixture
def env():
    bed = Testbed(TestbedConfig(jitter_fraction=0.0))
    ap = ApRuntime(bed.ap, bed.transport, bed.ldns.address)
    ap.install()
    node = bed.add_client("phone")
    runtime = ClientRuntime(node, bed.transport, bed.ap.address,
                            app_id="internals")
    return bed, ap, runtime


def cache_object(bed, runtime, url, size=10 * KB, ttl_s=1 * HOUR):
    bed.host_object(url, size)
    runtime.register_spec(CacheableSpec(url, 1, ttl_s))
    bed.sim.run(until=bed.sim.process(runtime.fetch(url)))


def test_flag_for_unknown_hash_is_delegation(env):
    _bed, ap, _runtime = env
    flag = ap._flag_for_hash(hash_url("http://never.example/x"), now=0.0)
    assert flag == CacheFlag.DELEGATION


def test_flag_for_cached_then_expired(env):
    bed, ap, runtime = env
    url = "http://internalsapp.example/short"
    cache_object(bed, runtime, url, ttl_s=1 * MINUTE)
    assert ap._flag_for_hash(hash_url(url), bed.sim.now) == \
        CacheFlag.CACHE_HIT
    assert ap._flag_for_hash(hash_url(url), bed.sim.now + 2 * MINUTE) \
        == CacheFlag.DELEGATION


def test_flag_for_blocked_hash_is_miss(env):
    _bed, ap, _runtime = env
    url = "http://internalsapp.example/huge"
    ap.blocklist.block(url)
    assert ap._flag_for_hash(hash_url(url), now=0.0) == \
        CacheFlag.CACHE_MISS


def test_build_flags_appends_unrequested_same_domain_hits(env):
    bed, ap, runtime = env
    known = "http://internalsapp.example/known"
    extra = "http://internalsapp.example/extra"
    other = "http://otherapp.example/elsewhere"
    cache_object(bed, runtime, known)
    cache_object(bed, runtime, extra)
    runtime_other = ClientRuntime(bed.add_client("phone2"),
                                  bed.transport, bed.ap.address,
                                  app_id="other")
    cache_object(bed, runtime_other, other)

    # A lookup asking only about `known` still learns about `extra`,
    # but never about the other domain's object.
    request = CacheLookupRdata()
    request.add_url(known)
    result = ap._build_flags(request,
                             DomainName("internalsapp.example"))
    flags = result.rdata.flags
    assert flags[hash_url(known)] == CacheFlag.CACHE_HIT
    assert flags[hash_url(extra)] == CacheFlag.CACHE_HIT
    assert hash_url(other) not in flags
    assert result.all_hit


def test_build_flags_all_hit_false_when_any_delegation(env):
    bed, ap, runtime = env
    cached = "http://internalsapp.example/cached"
    missing = "http://internalsapp.example/missing"
    cache_object(bed, runtime, cached)
    request = CacheLookupRdata()
    request.add_url(cached)
    request.add_url(missing)
    result = ap._build_flags(request,
                             DomainName("internalsapp.example"))
    assert not result.all_hit


def test_build_flags_empty_request_is_not_all_hit(env):
    _bed, ap, _runtime = env
    result = ap._build_flags(CacheLookupRdata(),
                             DomainName("internalsapp.example"))
    assert not result.all_hit
    assert len(result.rdata) == 0


def test_counters_split_plain_and_cache_queries(env):
    bed, ap, runtime = env
    url = "http://internalsapp.example/obj"
    cache_object(bed, runtime, url)
    assert ap.dns_cache_queries == 1
    assert ap.plain_dns_queries == 0

    bed.host_object("http://plainsite.example/page", KB)

    def plain():
        response = yield from runtime.http.get(
            "http://plainsite.example/page")
        return response

    bed.sim.run(until=bed.sim.process(plain()))
    assert ap.plain_dns_queries >= 1


def test_memory_bytes_counts_blocklist(env):
    bed, ap, runtime = env
    before = ap.memory_bytes()
    ap.blocklist.block("http://internalsapp.example/blocked")
    assert ap.memory_bytes() > before


def test_short_circuit_disabled_still_reports_flags():
    bed = Testbed(TestbedConfig(jitter_fraction=0.0))
    ap = ApRuntime(bed.ap, bed.transport, bed.ldns.address,
                   config=ApeCacheConfig(
                       enable_dummy_ip_short_circuit=False))
    ap.install()
    runtime = ClientRuntime(bed.add_client("phone"), bed.transport,
                            bed.ap.address, app_id="nosc")
    url = "http://noscapp.example/obj"
    bed.host_object(url, KB)
    runtime.register_spec(CacheableSpec(url, 1, 1 * HOUR))
    bed.sim.run(until=bed.sim.process(runtime.fetch(url)))
    runtime.flush()

    def probe():
        state = yield from runtime.lookup("noscapp.example")
        return state

    state = bed.sim.run(until=bed.sim.process(probe()))
    # Real IP (no dummy), but the hit flag still rides along.
    assert state.address == bed.edge.address
    assert state.flags[hash_url(url)] == CacheFlag.CACHE_HIT


def test_ap_runtime_records_protocol_events():
    bed = Testbed(TestbedConfig(jitter_fraction=0.0, enable_telemetry=True))
    ap = ApRuntime(bed.ap, bed.transport, bed.ldns.address,
                   config=ApeCacheConfig(cache_capacity_bytes=32 * KB),
                   telemetry=bed.telemetry)
    ap.install()
    runtime = ClientRuntime(bed.add_client("phone"), bed.transport,
                            bed.ap.address, app_id="traced")
    for index in range(4):
        cache_object(bed, runtime, f"http://tracedapp.example/obj{index}",
                     size=12 * KB)

    events = bed.telemetry.get("cache.events")
    assert events.total(tier="ap", event="insertion") == 4
    # 4 x 12 KB into a 32 KB cache forces at least one eviction.
    assert events.total(tier="ap", event="eviction") >= 1
    assert bed.telemetry.get("dns.queries").total(role=ap.role) >= 1
    admits = bed.telemetry.spans.finished("ap.pacm_admit")
    assert len(admits) == 4
    assert sum(span.attrs["evicted"] for span in admits) >= 1


# ----------------------------------------------------------------------
# The per-domain index and the reused answers against a naive scan
# ----------------------------------------------------------------------
def naive_flag(ap, url_hash, now):
    """`_flag_for_hash` without the store's hash index."""
    if ap.blocklist.is_blocked_hash(url_hash):
        return CacheFlag.CACHE_MISS
    for cached in ap.store.entries():
        if hash_url(Url.parse(cached.url).base) == url_hash and \
                not cached.is_expired(now):
            return CacheFlag.CACHE_HIT
    return CacheFlag.DELEGATION


def naive_build_flags(ap, lookup, domain):
    """`_build_flags` as it was before the per-host index: a walk over
    the whole store, parsing and hashing every entry's URL.  The
    reference."""
    now = ap.sim.now
    rdata = CacheLookupRdata()
    requested = set(lookup.flags)
    for url_hash in lookup.flags:
        rdata.add(url_hash, naive_flag(ap, url_hash, now))
    for cached in ap.store.entries():
        if cached.is_expired(now):
            continue
        url = Url.parse(cached.url)
        if url.domain != domain:
            continue
        cached_hash = hash_url(url.base)
        if cached_hash not in requested:
            rdata.add(cached_hash, CacheFlag.CACHE_HIT)
    return rdata


def ask(bed, ap, lookup, queried, message_id):
    """One DNS-Cache query through the AP's UDP handler; the flags it
    answered."""
    query = Message.query(queried, message_id=message_id)
    query.attach_cache_lookup(lookup, RRClass.REQUEST)
    wire = bed.sim.run(until=bed.sim.process(
        ap._handle(query.encode(), bed.ap.address)))
    response = Message.decode(wire)
    assert response.header.message_id == message_id
    return response.cache_lookup(RRClass.RESPONSE)


#: Spellings of three hosts — one of them a suffix of another — as
#: objects are stored under them, and a domain nothing is cached for.
_HOSTS = ("shop.example", "Shop.Example", "shop.example.",
          "cdn.shop.example", "CDN.shop.example", "myshop.example")
_QUERIED = _HOSTS + ("SHOP.EXAMPLE.", "empty.example")

_flag_operations = st.lists(
    st.tuples(
        st.sampled_from(["admit", "admit", "admit", "get", "advance",
                         "query", "query", "clear", "evict", "block"]),
        st.sampled_from(_HOSTS),
        st.integers(min_value=0, max_value=5),         # path index
        st.integers(min_value=1, max_value=24),        # size, KB
        st.sampled_from([5.0, 30.0, 600.0]),           # ttl / time step
        st.sampled_from(_QUERIED),
    ),
    min_size=1, max_size=50)


@settings(max_examples=60, deadline=None)
@given(_flag_operations)
def test_indexed_build_flags_is_byte_identical_to_the_naive_scan(ops):
    """Every answer — built, or reused from an earlier identical query —
    matches the naive scan, asked twice in a row after each admit,
    eviction, expiry, clear and block."""
    bed = Testbed(TestbedConfig(jitter_fraction=0.0))
    # 64 KB: a handful of objects fit, so PACM evicts all the time.
    ap = ApRuntime(bed.ap, bed.transport, bed.ldns.address,
                   config=ApeCacheConfig(cache_capacity_bytes=64 * KB))
    ap.tracker.observe("app", now=0.0)
    # Answer the A part from the forwarder's cache, so a query takes
    # only its CPU time and the flags are read at the instant it ends.
    for queried in _QUERIED:
        ap._cache[(DomainName(queried), RRType.A)] = DnsCacheEntry(
            [ResourceRecord(queried, RRType.A, RRClass.IN, 60,
                            "10.0.0.1")], math.inf)
    known_urls = []
    asked = []
    for action, host, path, size_kb, seconds, queried in ops:
        now = bed.sim.now
        url = f"http://{host}/obj{path}"
        if action == "admit":
            # Same URL again = replace in place; a full store = evict.
            ap.store.admit(CacheEntry(
                DataObject(url, size_kb * KB), app_id="app", priority=1,
                stored_at=now, expires_at=now + seconds,
                fetch_latency_s=0.03), ap.policy, now)
            known_urls.append(url)
        elif action == "get":
            ap.store.get(url, now)          # drops the entry if expired
        elif action == "advance":
            bed.sim.run(until=now + seconds)  # lets TTLs run out
        elif action == "clear":
            ap.store.clear()
        elif action in ("evict", "block"):
            # One of the URLs the queries below ask about.
            recent = known_urls[-3:] or [url]
            target = recent[path % len(recent)]
            if action == "evict":
                ap.store.remove(target)
            else:
                ap.blocklist.block(target)
        lookup = CacheLookupRdata()
        for known in known_urls[-3:] + [url]:
            lookup.add_url(known)
        # The queries answered before this operation, then a new one
        # twice: each may reuse an answer built before the operation.
        asked = asked[-2:] + [(lookup, queried)]
        for lookup, queried in asked + asked[-1:]:
            answered = ask(bed, ap, lookup, queried, len(known_urls))
            assert answered.encode() == naive_build_flags(
                ap, lookup, DomainName(queried)).encode()
    for queried in _QUERIED:
        domain = DomainName(queried)
        assert ap._build_flags(CacheLookupRdata(), domain).rdata.encode() \
            == naive_build_flags(ap, CacheLookupRdata(), domain).encode()
