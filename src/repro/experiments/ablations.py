"""Ablations of APE-CACHE's design choices (DESIGN.md Section 5).

Studies beyond the paper's own evaluation:

* **dummy-IP short circuit** on/off — its contribution to lookup latency;
* **fairness threshold theta** sweep — utility/fairness trade-off;
* **EWMA alpha** sweep — sensitivity of the frequency estimator;
* **block-list threshold** sweep — large objects vs cache churn;
* **dependency-aware prefetching** on/off;
* **on-device (L1) cache** size sweep.

Every sweep is one :class:`~repro.runner.spec.ScenarioSpec`.  The swept
knobs configure the *system*, not the workload, so each knob value is
one picklable ``ApeCacheSystem`` factory in the spec's ``systems`` and
the cells run through the ``"workload"`` runner; only the fairness
sweep (which reads the AP store after the run) and the short-circuit
probe bring their own runners.
"""

from __future__ import annotations

import functools
import typing as _t

from repro.apps.generator import DummyAppParams
from repro.apps.workload import Workload, WorkloadConfig
from repro.baselines.ape import ApeCacheSystem
from repro.core.annotations import CacheableSpec
from repro.core.ap_runtime import ApRuntime
from repro.core.client_runtime import ClientRuntime
from repro.core.config import ApeCacheConfig
from repro.errors import ConfigError
from repro.experiments.common import ExperimentTable, quick_duration
from repro.runner import ScenarioSpec, SweepEngine, SweepPoint, \
    cells_table, resolve_system
from repro.runner.spec import Cell
from repro.sim.kernel import HOUR, MINUTE
from repro.testbed import Testbed, TestbedConfig

__all__ = ["run", "run_short_circuit", "run_fairness_sweep",
           "run_alpha_sweep", "run_blocklist_sweep", "run_prefetch",
           "run_device_cache"]

KB = 1024
MB = 1024 * 1024


def _workload_config(quick: bool, seed: int,
                     **overrides) -> WorkloadConfig:
    defaults = dict(n_apps=30,
                    duration_s=quick_duration(quick, quick_s=3 * MINUTE),
                    seed=seed, dummy_params=DummyAppParams(),
                    testbed=TestbedConfig(seed=seed))
    defaults.update(overrides)
    return WorkloadConfig(**defaults)


def _knob_sweep(name: str, title: str, column: str,
                labels: _t.Sequence[object],
                systems: _t.Sequence[_t.Callable[[], object]],
                workload: WorkloadConfig,
                metrics: _t.Mapping[str, str], seed: int, jobs: int,
                runner: str = "workload",
                ints: _t.Collection[str] = ()) -> ExperimentTable:
    """One workload cell per system-knob value, one row per cell."""
    spec = ScenarioSpec(name=name, systems=tuple(systems), seeds=(seed,),
                        workload=workload, runner=runner)
    return cells_table(SweepEngine(jobs=jobs).run(spec), title, metrics,
                       identity=False, labels={column: labels}, ints=ints)


# ----------------------------------------------------------------------
# Dummy-IP short circuit
# ----------------------------------------------------------------------
def short_circuit_cell(cell: Cell) -> dict[str, object]:
    """Cell runner: timed all-hit lookups, short circuit on or off."""
    enabled = bool(cell.params["short_circuit"])
    runs = int(_t.cast(int, cell.params["runs"]))
    bed = Testbed(TestbedConfig(seed=cell.seed))
    config = ApeCacheConfig(enable_dummy_ip_short_circuit=enabled)
    ApRuntime(bed.ap, bed.transport, bed.ldns.address,
              config=config).install()
    node = bed.add_client("phone")
    runtime = ClientRuntime(node, bed.transport, bed.ap.address,
                            app_id="ablation")
    url = "http://ablationapp.example/object"
    bed.host_object(url, 10 * KB)
    runtime.register_spec(CacheableSpec(url, 1, 1 * HOUR))
    bed.sim.run(until=bed.sim.process(runtime.fetch(url)))  # cache it

    total = 0.0
    for _ in range(runs):
        runtime.flush()

        def probe():
            started = bed.sim.now
            yield from runtime.lookup("ablationapp.example")
            return bed.sim.now - started

        total += bed.sim.run(until=bed.sim.process(probe()))
        # Let the AP's upstream DNS cache expire between probes so
        # the no-short-circuit variant pays real resolutions.
        bed.sim.run(until=bed.sim.now + 30.0)
    return {"all_hit_lookup_ms": (total / runs) * 1e3}


def run_short_circuit(quick: bool = True, seed: int = 0,
                      jobs: int = 1) -> ExperimentTable:
    """All-hit lookup latency with and without the short circuit."""
    spec = ScenarioSpec(
        name="ablation-short-circuit", systems=(None,), seeds=(seed,),
        workload=None,
        axes={"short_circuit": [
            SweepPoint(label, {"params.short_circuit": enabled})
            for label, enabled in (("on", True), ("off", False))]},
        params={"runs": 40 if quick else 200},
        runner="repro.experiments.ablations:short_circuit_cell")
    table = cells_table(SweepEngine(jobs=jobs).run(spec),
                        "Ablation: dummy-IP short circuit",
                        ["all_hit_lookup_ms"], identity=False)
    on_ms, off_ms = (float(_t.cast(float, row["all_hit_lookup_ms"]))
                     for row in table.rows)
    table.notes.append(
        f"short-circuiting upstream resolution saves "
        f"{off_ms - on_ms:.2f} ms per all-hit lookup")
    return table


# ----------------------------------------------------------------------
# Fairness threshold theta
# ----------------------------------------------------------------------
def fairness_cell(cell: Cell) -> dict[str, object]:
    """Cell runner: one workload run plus the fairness it achieved.

    The one bespoke workload runner: ``achieved_fairness`` reads the
    AP's store after the run, which ``workload_cell`` does not report.
    """
    if cell.workload is None:
        raise ConfigError(f"{cell.scenario}: cells need a workload config")
    system = _t.cast(ApeCacheSystem, resolve_system(cell.system))
    result = Workload(cell.workload).run(system)
    runtime = system.ap_runtime
    assert runtime is not None
    fairness = runtime.policy.fairness(runtime.store) \
        if hasattr(runtime.policy, "fairness") else float("nan")
    return {"hit_ratio": result.hit_ratio(),
            "hit_ratio_high": result.hit_ratio(only_high_priority=True),
            "achieved_fairness": fairness}


def run_fairness_sweep(quick: bool = True, seed: int = 0,
                       jobs: int = 1) -> ExperimentTable:
    """Hit ratios and achieved fairness across theta."""
    thetas = (0.1, 0.2, 0.4, 0.7, 1.0)
    table = _knob_sweep(
        "ablation-fairness", "Ablation: PACM fairness threshold theta",
        "theta", thetas,
        [functools.partial(ApeCacheSystem,
                           ApeCacheConfig(fairness_threshold=theta))
         for theta in thetas],
        _workload_config(quick, seed),
        {"hit_ratio": "hit_ratio", "hit_ratio_high": "hit_ratio_high",
         "achieved_fairness": "achieved_fairness"}, seed, jobs,
        runner="repro.experiments.ablations:fairness_cell")
    table.notes.append(
        "paper default theta=0.4; tighter theta trades utility (hit "
        "ratio) for evenly spread cache space")
    return table


# ----------------------------------------------------------------------
# EWMA alpha
# ----------------------------------------------------------------------
def run_alpha_sweep(quick: bool = True, seed: int = 0,
                    jobs: int = 1) -> ExperimentTable:
    """Frequency-estimator smoothing vs hit ratios."""
    alphas = (0.1, 0.3, 0.5, 0.7, 0.9)
    table = _knob_sweep(
        "ablation-alpha", "Ablation: request-frequency EWMA alpha",
        "alpha", alphas,
        [functools.partial(ApeCacheSystem,
                           ApeCacheConfig(frequency_alpha=alpha))
         for alpha in alphas],
        _workload_config(quick, seed),
        {"hit_ratio": "hit_ratio",
         "hit_ratio_high": "hit_ratio_high_priority"}, seed, jobs)
    table.notes.append("paper default alpha=0.7")
    return table


# ----------------------------------------------------------------------
# Block-list threshold
# ----------------------------------------------------------------------
def run_blocklist_sweep(quick: bool = True, seed: int = 0,
                        jobs: int = 1) -> ExperimentTable:
    """Large-object workload across block-list thresholds."""
    thresholds_kb = (100, 250, 500, 1000)
    large_params = DummyAppParams(min_size_bytes=50 * KB,
                                  max_size_bytes=700 * KB)
    table = _knob_sweep(
        "ablation-blocklist", "Ablation: block-list size threshold",
        "threshold_kb", thresholds_kb,
        [functools.partial(ApeCacheSystem, ApeCacheConfig(
            blocklist_threshold_bytes=threshold_kb * KB))
         for threshold_kb in thresholds_kb],
        _workload_config(quick, seed, dummy_params=large_params),
        {"hit_ratio": "hit_ratio",
         "blocked_objects": "ap:blocked_objects",
         "mean_app_latency_ms": "mean_app_latency_ms"}, seed, jobs,
        ints=("blocked_objects",))
    table.notes.append(
        "paper default 500 KB; lower thresholds block more objects "
        "(fewer AP hits), higher ones let big objects churn the cache")
    return table


# ----------------------------------------------------------------------
# Dependency-aware prefetching (the APPx-synergy extension)
# ----------------------------------------------------------------------
def run_prefetch(quick: bool = True, seed: int = 0,
                 jobs: int = 1) -> ExperimentTable:
    """Workload latency with and without AP prefetching.

    Short TTLs make delegations recur, which is where warming the rest
    of an app's DAG off the critical path pays.
    """
    short_ttl = DummyAppParams(min_ttl_s=2 * MINUTE, max_ttl_s=5 * MINUTE)
    table = _knob_sweep(
        "ablation-prefetch",
        "Ablation: dependency-aware prefetching on the AP",
        "prefetch", ("off", "on"),
        [functools.partial(ApeCacheSystem,
                           ApeCacheConfig(enable_prefetch=enabled))
         for enabled in (False, True)],
        _workload_config(quick, seed, dummy_params=short_ttl),
        {"mean_app_latency_ms": "mean_app_latency_ms",
         "hit_ratio": "hit_ratio", "prefetches": "ap:prefetches",
         "edge_fetches": "ap:edge_fetches"}, seed, jobs,
        ints=("prefetches", "edge_fetches"))
    table.notes.append(
        "the paper's related-work synergy: shipping request-dependency "
        "info to the AP prefetches dependents, cutting cold/expired "
        "misses")
    return table


# ----------------------------------------------------------------------
# Device-local (L1) cache in front of the AP
# ----------------------------------------------------------------------
def run_device_cache(quick: bool = True, seed: int = 0,
                     jobs: int = 1) -> ExperimentTable:
    """APE-CACHE with a PALOMA-style on-device cache layered in front.

    The paper's related work positions client-side caching systems as
    complementary; this sweep quantifies the combination.
    """
    sizes_kb = (0, 64, 256, 1024)
    table = _knob_sweep(
        "ablation-device-cache",
        "Ablation: on-device (L1) cache in front of the AP",
        "device_cache_kb", sizes_kb,
        [functools.partial(ApeCacheSystem, device_cache_bytes=kb * KB)
         for kb in sizes_kb],
        _workload_config(quick, seed),
        {"mean_app_latency_ms": "mean_app_latency_ms",
         "ap_hit_ratio_incl_device": "hit_ratio"}, seed, jobs)
    table.notes.append(
        "0 KB is the paper's configuration; device hits serve in ~0 ms "
        "and relieve the AP, stacking with (not replacing) AP caching")
    return table


def run(quick: bool = True, seed: int = 0,
        jobs: int = 1) -> list[ExperimentTable]:
    return [run_short_circuit(quick, seed, jobs),
            run_fairness_sweep(quick, seed, jobs),
            run_alpha_sweep(quick, seed, jobs),
            run_blocklist_sweep(quick, seed, jobs),
            run_prefetch(quick, seed, jobs),
            run_device_cache(quick, seed, jobs)]
