"""Experiment Fig. 13: average app-level latency under varied settings.

Three sweeps (object size, usage frequency, app quantity), each run for
all four systems — the paper's Fig. 13a/b/c.  At the default setting the
paper reads 30 / 42 / 54 / 122 ms for APE-CACHE / APE-CACHE-LRU /
Wi-Cache / Edge Cache.

Each sweep is one declarative :class:`~repro.runner.spec.ScenarioSpec`
executed by the scenario engine — pass ``jobs > 1`` to fan the cells
out across cores (see ``docs/experiments.md``).
"""

from __future__ import annotations

from repro.apps.generator import DummyAppParams
from repro.apps.workload import WorkloadConfig
from repro.experiments.common import ExperimentTable, quick_duration
from repro.experiments.pacm_tables import (
    APP_QUANTITIES,
    FREQUENCIES,
    SIZE_RANGES,
    size_range_axis,
)
from repro.runner import ScenarioSpec, SweepEngine, sweep_table
from repro.sim.kernel import MINUTE
from repro.testbed import TestbedConfig

__all__ = ["run", "run_size_sweep", "run_frequency_sweep",
           "run_quantity_sweep"]

KB = 1024
SYSTEM_NAMES = ("APE-CACHE", "APE-CACHE-LRU", "Wi-Cache", "Edge Cache")
METRIC = "mean_app_latency_ms"


def _base_spec(name: str, quick: bool, seed: int,
               axes: dict) -> ScenarioSpec:
    duration = quick_duration(quick, quick_s=3 * MINUTE)
    return ScenarioSpec(
        name=name, systems=SYSTEM_NAMES, seeds=(seed,),
        workload=WorkloadConfig(n_apps=30, avg_frequency_per_min=3.0,
                                duration_s=duration, seed=seed,
                                dummy_params=DummyAppParams(),
                                testbed=TestbedConfig(seed=seed)),
        axes=axes)


def run_size_sweep(quick: bool = True, seed: int = 0,
                   jobs: int = 1) -> ExperimentTable:
    """Fig. 13a: latency vs data object size."""
    spec = _base_spec("fig13a-size", quick, seed,
                      axes={"size_range_kb": size_range_axis(SIZE_RANGES)})
    result = SweepEngine(jobs=jobs).run(spec)
    table = sweep_table(
        result, title="Fig. 13a: Avg app-level latency (ms) vs object size",
        axis="size_range_kb", metric=METRIC)
    table.notes.append(
        "paper trend: latency grows with object size for the AP-cached "
        "systems (lower hit ratio); APE-CACHE lowest across the board")
    return table


def run_frequency_sweep(quick: bool = True, seed: int = 0,
                        jobs: int = 1) -> ExperimentTable:
    """Fig. 13b: latency vs app usage frequency."""
    spec = _base_spec("fig13b-frequency", quick, seed,
                      axes={"avg_frequency_per_min": FREQUENCIES})
    result = SweepEngine(jobs=jobs).run(spec)
    table = sweep_table(
        result,
        title="Fig. 13b: Avg app-level latency (ms) vs usage frequency",
        axis="avg_frequency_per_min", metric=METRIC,
        axis_column="frequency_per_min")
    table.notes.append(
        "paper trend: higher frequency -> higher hit ratio -> slightly "
        "lower latency for AP-cached systems; Edge Cache flat")
    return table


def run_quantity_sweep(quick: bool = True, seed: int = 0,
                       jobs: int = 1) -> ExperimentTable:
    """Fig. 13c: latency vs app quantity."""
    spec = _base_spec("fig13c-quantity", quick, seed,
                      axes={"n_apps": APP_QUANTITIES})
    result = SweepEngine(jobs=jobs).run(spec)
    table = sweep_table(
        result,
        title="Fig. 13c: Avg app-level latency (ms) vs app quantity",
        axis="n_apps", metric=METRIC)
    table.notes.append(
        "paper at defaults: APE 30 < APE-LRU 42 < Wi-Cache 54 << "
        "Edge 122 ms (-29% / -44% / -76%)")
    return table


def run(quick: bool = True, seed: int = 0,
        jobs: int = 1) -> list[ExperimentTable]:
    return [run_size_sweep(quick, seed, jobs),
            run_frequency_sweep(quick, seed, jobs),
            run_quantity_sweep(quick, seed, jobs)]
