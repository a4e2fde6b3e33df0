"""Experiment Fig. 14: APE-CACHE's CPU/memory overhead on the AP.

Runs 30 APE-CACHE-enabled apps and their regular (direct-to-edge)
versions, sampling the AP's service CPU and APE-CACHE's memory footprint.
The paper reports at most ~6% extra CPU and ~13 MB of memory with a 5 MB
cache allocation.  The study executes as one system-less scenario cell.
"""

from __future__ import annotations

import typing as _t

from repro.apps.workload import WorkloadConfig
from repro.errors import ConfigError
from repro.experiments.common import ExperimentTable, quick_duration
from repro.measurement.overhead import ApOverheadStudy
from repro.runner import ScenarioSpec, SweepEngine
from repro.runner.spec import Cell
from repro.sim.kernel import MINUTE
from repro.testbed import TestbedConfig

__all__ = ["run", "overhead_cell"]


def overhead_cell(cell: Cell) -> dict[str, object]:
    """Cell runner: the paired APE/regular overhead study."""
    if cell.workload is None:
        raise ConfigError("fig14 cells need a workload config")
    report = ApOverheadStudy(cell.workload).run()
    return dict(report.summary())


def run(quick: bool = True, seed: int = 0, jobs: int = 1,
        ) -> ExperimentTable:
    duration = quick_duration(quick, quick_s=5 * MINUTE)
    spec = ScenarioSpec(
        name="fig14-ap-overhead", systems=(None,), seeds=(seed,),
        workload=WorkloadConfig(n_apps=30, duration_s=duration,
                                seed=seed,
                                testbed=TestbedConfig(seed=seed)),
        runner="repro.experiments.fig14:overhead_cell")
    summary = _t.cast(dict, SweepEngine(jobs=jobs).run(spec)
                      .cells[0].metrics)

    table = ExperimentTable(
        title="Fig. 14: CPU/Memory overhead of APE-CACHE on the AP",
        columns=["metric", "value", "paper"])
    table.add_row(metric="APE-CACHE mean CPU (%)",
                  value=summary["ape_mean_cpu_percent"], paper="<= ~6 extra")
    table.add_row(metric="regular apps mean CPU (%)",
                  value=summary["regular_mean_cpu_percent"], paper="-")
    table.add_row(metric="extra CPU (%)",
                  value=summary["extra_cpu_percent"], paper="up to 6")
    table.add_row(metric="peak extra CPU (%)",
                  value=summary["peak_extra_cpu_percent"], paper="up to 6")
    table.add_row(metric="extra memory (MB)",
                  value=summary["extra_memory_mb"], paper="~13")
    table.add_row(metric="peak extra memory (MB)",
                  value=summary["peak_extra_memory_mb"], paper="~13")
    table.notes.append(
        "memory = 7 MB daemon footprint + 5 MB object cache + tables; "
        "CPU covers DNS-Cache handling, HTTP serving, and PACM runs")
    return table
