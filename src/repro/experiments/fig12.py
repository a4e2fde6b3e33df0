"""Experiment Fig. 12: real-world apps' latency (average and p95 tail).

Runs the full 30-app workload under each caching system and reports
MovieTrailer's and VirtualHome's app-level latency distributions.  One
scenario cell per system; the per-app breakdown rides on the workload
runner's ``app_metrics`` parameter.
"""

from __future__ import annotations

from repro.apps.workload import WorkloadConfig
from repro.experiments.common import ExperimentTable, quick_duration
from repro.runner import ScenarioSpec, SweepEngine
from repro.sim.kernel import MINUTE
from repro.testbed import TestbedConfig

__all__ = ["run", "REAL_APPS"]

REAL_APPS = ("movietrailer", "virtualhome")
SYSTEM_NAMES = ("APE-CACHE", "APE-CACHE-LRU", "Wi-Cache", "Edge Cache")


def run(quick: bool = True, seed: int = 0,
        jobs: int = 1) -> list[ExperimentTable]:
    """One table per real app: mean and tail latency per system."""
    duration = quick_duration(quick, quick_s=5 * MINUTE)
    spec = ScenarioSpec(
        name="fig12-real-apps", systems=SYSTEM_NAMES, seeds=(seed,),
        workload=WorkloadConfig(n_apps=30, duration_s=duration,
                                seed=seed,
                                testbed=TestbedConfig(seed=seed)),
        params={"app_metrics": list(REAL_APPS)})
    result = SweepEngine(jobs=jobs).run(spec)
    metrics = {cell_result.system_name: cell_result.metrics
               for cell_result in result.cells}

    tables = []
    for app_id in REAL_APPS:
        table = ExperimentTable(
            title=f"Fig. 12: {app_id} app-level latency",
            columns=["system", "mean_ms", "p95_ms"])
        for system_name in SYSTEM_NAMES:
            values = metrics[system_name]
            table.add_row(
                system=system_name,
                mean_ms=values[f"app:{app_id}:mean_ms"],
                p95_ms=values[f"app:{app_id}:p95_ms"])
        ape = float(metrics["APE-CACHE"][f"app:{app_id}:mean_ms"])
        edge = float(metrics["Edge Cache"][f"app:{app_id}:mean_ms"])
        table.notes.append(
            f"APE-CACHE cuts {app_id}'s mean latency by "
            f"{100 * (1 - ape / edge):.0f}% vs Edge Cache "
            "(paper: ~78% mean, ~76% tail)")
        tables.append(table)
    return tables
