"""Experiment Fig. 11: object-level caching latency.

Fig. 11a/11c measure cache lookup and cache retrieval latency for a
single cacheable object while the 30-app workload loads the AP at
varying usage frequencies.  As in the paper's measurement methodology, a
probe client performs fresh lookups (its local caches are flushed per
sample, the way the paper's tool measures full resolutions), against a
probe object that each system has had the chance to cache.

Fig. 11b isolates the DNS-Cache design: a plain DNS query answered from
the AP cache, a DNS-Cache query (piggybacked lookup), the same lookup
done as two standalone queries, and a plain DNS query that misses on the
AP and recurses upstream.

Both figures run through the scenario engine: Fig. 11a/c is a
(frequency x system) sweep whose cells attach the probe as an extra
process; Fig. 11b is a single system-less measurement cell.
"""

from __future__ import annotations

import typing as _t

from repro.apps.generator import DummyAppParams
from repro.apps.workload import Workload, WorkloadConfig
from repro.baselines.base import CachingSystem
from repro.core.annotations import CacheableSpec
from repro.core.ap_runtime import ApRuntime
from repro.core.client_runtime import ClientRuntime
from repro.dnslib.cache_rr import CacheFlag, CacheLookupRdata
from repro.dnslib.message import Message
from repro.dnslib.resolver import StubResolver
from repro.dnslib.rr import RRClass, RRType
from repro.errors import ConfigError
from repro.experiments.common import ExperimentTable, quick_duration
from repro.runner import ScenarioSpec, SweepEngine, resolve_system, sweep_table
from repro.runner.spec import Cell
from repro.sim.kernel import HOUR, MINUTE
from repro.testbed import Testbed, TestbedConfig

__all__ = ["run", "run_lookup_overhead", "PROBE_URL"]

PROBE_URL = "http://probeapp.example/object"
PROBE_SIZE = 40 * 1024
#: The probe object is warm everywhere (the paper measures pure cache
#: retrieval), so it carries no simulated remote-backend delay.
PROBE_ORIGIN_DELAY = 0.0
FREQUENCIES = (1.0, 1.5, 2.0, 2.5, 3.0)
SYSTEM_NAMES = ("APE-CACHE", "APE-CACHE-LRU", "Wi-Cache", "Edge Cache")


def _probe_factory(samples: dict[str, list[float]],
                   interval_s: float = 5.0):
    """A workload extra-process measuring one fetch per interval."""

    def probe(bed: Testbed, system: CachingSystem):
        node = bed.add_client("probe-client")
        fetcher = system.new_fetcher(bed, node, "probe-app")
        bed.host_object(PROBE_URL, PROBE_SIZE,
                        origin_delay_s=PROBE_ORIGIN_DELAY)
        fetcher.register_spec(CacheableSpec(
            PROBE_URL, priority=2, ttl_s=2 * HOUR))
        # Prime: the first fetch installs the object in AP caches.
        yield bed.sim.process(_fetch_once(fetcher))
        while True:
            yield bed.sim.timeout(interval_s)
            flush = getattr(fetcher, "flush", None)
            if flush is not None:
                flush()
            result = yield bed.sim.process(_fetch_once(fetcher))
            samples["lookup_ms"].append(
                result.lookup_latency_s * 1e3)
            samples["retrieval_ms"].append(
                result.retrieval_latency_s * 1e3)

    return probe


def _fetch_once(fetcher):
    result = yield from fetcher.fetch(PROBE_URL)
    return result


def probe_cell(cell: Cell) -> dict[str, object]:
    """Cell runner: one workload run with the latency probe attached."""
    if cell.workload is None or cell.system is None:
        raise ConfigError("fig11 probe cells need a workload and system")
    system = resolve_system(cell.system)
    assert system is not None
    samples: dict[str, list[float]] = {"lookup_ms": [],
                                       "retrieval_ms": []}
    Workload(cell.workload).run(
        system, extra_processes=[_probe_factory(samples)])
    return {"system_name": system.name,
            "metrics": {"lookup_ms": _mean(samples["lookup_ms"]),
                        "retrieval_ms": _mean(samples["retrieval_ms"])}}


def run(quick: bool = True, seed: int = 0,
        jobs: int = 1) -> list[ExperimentTable]:
    """Fig. 11a (lookup) and Fig. 11c (retrieval) across frequencies."""
    duration = quick_duration(quick, quick_s=3 * MINUTE)
    spec = ScenarioSpec(
        name="fig11-object-latency", systems=SYSTEM_NAMES, seeds=(seed,),
        workload=WorkloadConfig(n_apps=30, duration_s=duration,
                                seed=seed, dummy_params=DummyAppParams(),
                                testbed=TestbedConfig(seed=seed)),
        axes={"avg_frequency_per_min": FREQUENCIES},
        runner="repro.experiments.fig11:probe_cell")
    result = SweepEngine(jobs=jobs).run(spec)

    lookup_table = sweep_table(
        result,
        title="Fig. 11a: Cache lookup latency (ms) vs usage frequency",
        axis="avg_frequency_per_min", metric="lookup_ms",
        axis_column="frequency_per_min")
    retrieval_table = sweep_table(
        result,
        title="Fig. 11c: Cache retrieval latency (ms) vs usage frequency",
        axis="avg_frequency_per_min", metric="retrieval_ms",
        axis_column="frequency_per_min")

    lookup_table.notes.append(
        "paper: APE-CACHE ~7.5 ms, Wi-Cache and Edge Cache exceed 22 ms")
    retrieval_table.notes.append(
        "paper: APE-CACHE and Wi-Cache ~7 ms, Edge Cache ~30 ms")
    summary = _summary_note(lookup_table, retrieval_table)
    retrieval_table.notes.append(summary)
    return [lookup_table, retrieval_table]


def _mean(values: list[float]) -> float:
    if not values:
        raise ValueError("probe collected no samples")
    return sum(values) / len(values)


def _summary_note(lookup: ExperimentTable,
                  retrieval: ExperimentTable) -> str:
    def overall(table: ExperimentTable, system: str) -> float:
        column = [float(_t.cast(float, value))
                  for value in table.column(system)]
        return sum(column) / len(column)

    totals = {system: overall(lookup, system) + overall(retrieval, system)
              for system in ("APE-CACHE", "Wi-Cache", "Edge Cache")}
    ape = totals["APE-CACHE"]
    return ("overall object latency: "
            f"APE-CACHE {ape:.1f} ms vs Wi-Cache "
            f"{totals['Wi-Cache']:.1f} ms "
            f"(-{100 * (1 - ape / totals['Wi-Cache']):.0f}%), "
            f"Edge Cache {totals['Edge Cache']:.1f} ms "
            f"(-{100 * (1 - ape / totals['Edge Cache']):.0f}%); "
            "paper: 14.24 / 29.50 / 55.93 ms (-51.7% / -74.5%)")


# ----------------------------------------------------------------------
# Fig. 11b: the DNS-Cache query's latency overhead
# ----------------------------------------------------------------------
def lookup_overhead_cell(cell: Cell) -> dict[str, object]:
    """Cell runner: the four Fig. 11b query variants, timed."""
    runs = int(_t.cast(int, cell.params.get("runs", 40)))
    bed = Testbed(TestbedConfig(seed=cell.seed))
    ap_runtime = ApRuntime(bed.ap, bed.transport, bed.ldns.address)
    ap_runtime.install()
    node = bed.add_client("phone")
    runtime = ClientRuntime(node, bed.transport, bed.ap.address,
                            app_id="overhead-probe")
    url = "http://overheadapp.example/object"
    bed.host_object(url, 10 * 1024)
    runtime.register_spec(CacheableSpec(url, priority=1, ttl_s=1 * HOUR))

    # Cache the object on the AP and warm the AP's DNS cache.
    bed.sim.run(until=bed.sim.process(runtime.fetch(url)))

    def timed(generator_factory) -> float:
        def wrapper():
            started = bed.sim.now
            yield from generator_factory()
            return bed.sim.now - started
        total = 0.0
        for _ in range(runs):
            total += bed.sim.run(until=bed.sim.process(wrapper()))
        return (total / runs) * 1e3

    stub = StubResolver(node, bed.transport, bed.ap.address)

    def plain_dns_hit():
        stub.flush_cache()
        yield from stub.resolve("overheadapp.example")

    def dns_cache_query():
        runtime.flush()
        yield from runtime.lookup("overheadapp.example")

    def standalone_pair():
        # A regular DNS query followed by a *separate* cache query.
        stub.flush_cache()
        yield from stub.resolve("overheadapp.example")
        query = Message.query("overheadapp.example", RRType.A,
                              message_id=stub.next_message_id())
        rdata = CacheLookupRdata()
        rdata.add_url(url, CacheFlag.REQUEST)
        query.attach_cache_lookup(rdata, RRClass.REQUEST)
        yield from stub.exchange(query)

    def plain_dns_miss():
        # An unknown domain forces upstream recursion from the AP.
        bed.host_object("http://colddomain.example/x", 1024)
        stub.flush_cache()
        ap_runtime._cache.clear()
        yield from stub.resolve("colddomain.example")

    return {"plain_hit_ms": timed(plain_dns_hit),
            "dns_cache_ms": timed(dns_cache_query),
            "standalone_ms": timed(standalone_pair),
            "miss_ms": timed(plain_dns_miss)}


def run_lookup_overhead(quick: bool = True, seed: int = 0,
                        jobs: int = 1) -> ExperimentTable:
    """Fig. 11b: piggybacked lookups vs alternatives."""
    spec = ScenarioSpec(
        name="fig11b-lookup-overhead", systems=(None,), seeds=(seed,),
        workload=None, params={"runs": 40 if quick else 200},
        runner="repro.experiments.fig11:lookup_overhead_cell")
    result = SweepEngine(jobs=jobs).run(spec)
    metrics = result.cells[0].metrics

    table = ExperimentTable(
        title="Fig. 11b: Lookup latency overhead of DNS-Cache queries",
        columns=["query_kind", "latency_ms"])
    plain_hit_ms = float(_t.cast(float, metrics["plain_hit_ms"]))
    dns_cache_ms = float(_t.cast(float, metrics["dns_cache_ms"]))
    standalone_ms = float(_t.cast(float, metrics["standalone_ms"]))
    miss_ms = float(_t.cast(float, metrics["miss_ms"]))
    table.add_row(query_kind="regular DNS (hit on AP)",
                  latency_ms=plain_hit_ms)
    table.add_row(query_kind="DNS-Cache (piggybacked)",
                  latency_ms=dns_cache_ms)
    table.add_row(query_kind="standalone DNS + cache query",
                  latency_ms=standalone_ms)
    table.add_row(query_kind="regular DNS (miss, recursive)",
                  latency_ms=miss_ms)
    table.notes.append(
        f"piggyback overhead vs regular hit: "
        f"{dns_cache_ms - plain_hit_ms:.3f} ms (paper: +0.02 ms); "
        f"standalone penalty vs piggyback: "
        f"{standalone_ms - dns_cache_ms:.2f} ms (paper: +7.02 ms)")
    return table
