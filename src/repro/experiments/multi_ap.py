"""Extension experiment: distributed Wi-Cache across multiple APs.

The original Wi-Cache spreads cached content over an enterprise WLAN's
APs; the paper collapses it to one AP.  This experiment restores the
distributed form and measures how aggregate cache capacity scales:
clients spread round-robin over 1/2/4 APs, apps execute at a fixed
rate, and the controller redirects hits to whichever AP holds each
object.

One scenario cell per AP count, run through the scenario engine.
"""

from __future__ import annotations

import typing as _t

from repro.apps.executor import AppRunner
from repro.apps.generator import DummyAppParams, generate_apps
from repro.apps.workload import zipf_rates
from repro.baselines.multi_ap import WiCacheDistributedSystem
from repro.experiments.common import ExperimentTable, quick_duration
from repro.runner import ScenarioSpec, SweepEngine, cells_table
from repro.runner.spec import Cell
from repro.sim.kernel import MINUTE
from repro.testbed import Testbed, TestbedConfig

__all__ = ["run", "multi_ap_cell", "AP_COUNTS"]

AP_COUNTS = (1, 2, 4)

MB = 1024 * 1024
N_APPS = 24


def _drive(bed: Testbed, runner: AppRunner, rate_per_s: float,
           latencies: list[float],
           ) -> _t.Generator[object, object, None]:
    rng = bed.streams.stream(f"multiap:{runner.app.app_id}")
    while True:
        yield bed.sim.timeout(rng.expovariate(rate_per_s))
        execution = yield bed.sim.process(runner.execute())
        latencies.append(execution.latency_s)  # type: ignore[union-attr]


def _run_point(n_aps: int, duration_s: float, seed: int,
               ) -> dict[str, float]:
    bed = Testbed(TestbedConfig(seed=seed))
    system = WiCacheDistributedSystem(n_aps=n_aps,
                                      cache_capacity_per_ap=2 * MB)
    system.install(bed)
    apps = generate_apps(N_APPS, seed=seed, params=DummyAppParams())
    rates = zipf_rates(N_APPS, 0.8, 3.0)

    latencies: list[float] = []
    runners = []
    for index, (app, rate) in enumerate(zip(apps, rates)):
        home = system.home_ap_name(index)
        node = bed.add_client(f"client-{app.app_id}", ap_name=home)
        fetcher = system.new_fetcher(bed, node, app.app_id)
        runner = AppRunner(bed.sim, app, fetcher)
        runners.append(runner)
        for obj in app.objects:
            bed.host_object(obj.url, obj.size_bytes,
                            origin_delay_s=obj.origin_delay_s)
        bed.sim.process(_drive(bed, runner, rate, latencies))
    bed.run(until=duration_s)

    fetches = [result for runner in runners
               for _name, result in runner.fetch_results()]
    hits = sum(1 for result in fetches if result.cache_hit)
    stats = system.ap_cache_stats()
    return {
        "hit_ratio": hits / len(fetches) if fetches else 0.0,
        "mean_app_latency_ms": (sum(latencies) / len(latencies) * 1e3
                                if latencies else 0.0),
        "aggregate_cache_mb": stats["cache_used_bytes"] / MB,
        "hits_served": stats["hits_served"],
    }


def multi_ap_cell(cell: Cell) -> dict[str, object]:
    """Cell runner: one distributed-Wi-Cache run at a given AP count."""
    n_aps = int(_t.cast(int, cell.coords["n_aps"]))
    duration_s = float(_t.cast(float, cell.params["duration_s"]))
    return dict(_run_point(n_aps, duration_s, cell.seed))


def run(quick: bool = True, seed: int = 0,
        jobs: int = 1) -> ExperimentTable:
    spec = ScenarioSpec(
        name="multi-ap", systems=(None,), seeds=(seed,),
        workload=None, axes={"n_aps": AP_COUNTS},
        params={"duration_s": quick_duration(quick, quick_s=4 * MINUTE)},
        runner="repro.experiments.multi_ap:multi_ap_cell")
    table = cells_table(
        SweepEngine(jobs=jobs).run(spec),
        "Extension: distributed Wi-Cache, hit ratio vs AP count",
        ["hit_ratio", "mean_app_latency_ms", "aggregate_cache_mb"],
        identity=False)
    table.notes.append(
        "each AP contributes 2 MB; more APs -> more aggregate cache -> "
        "higher hit ratio and lower latency (the original Wi-Cache's "
        "scaling argument)")
    return table
