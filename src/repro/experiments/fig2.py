"""Experiment Table II + Fig. 2: router load under traffic replay.

One system-less scenario cell per Table II trace; each cell
synthesizes, verifies, and replays its trace against the router
resource model.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.experiments.common import ExperimentTable
from repro.measurement.resources import GL_MT1300, RouterResourceModel
from repro.measurement.traffic import (
    HIGH_RATE_TRACE,
    LOW_RATE_TRACE,
    replay_trace,
    synthesize_trace,
)
from repro.runner import ScenarioSpec, SweepEngine, cells_table
from repro.runner.spec import Cell

__all__ = ["run", "replay_cell"]

MB = 1024 * 1024
TRACES = {spec.name: spec for spec in (LOW_RATE_TRACE, HIGH_RATE_TRACE)}


def replay_cell(cell: Cell) -> dict[str, object]:
    """Cell runner: synthesize + verify + replay one Table II trace."""
    trace_name = str(cell.coords["trace"])
    if trace_name not in TRACES:
        raise ConfigError(f"unknown trace {trace_name!r}; "
                          f"known: {sorted(TRACES)}")
    spec = TRACES[trace_name]
    trace = synthesize_trace(spec, seed=cell.seed)
    trace.verify_statistics()
    report = replay_trace(trace, RouterResourceModel(GL_MT1300))
    metrics: dict[str, object] = dict(report.summary())
    metrics.update(packets=spec.packets, flows=spec.flows,
                   total_mb=spec.total_bytes / MB, apps=spec.app_count)
    return metrics


def run(quick: bool = True, seed: int = 0,
        jobs: int = 1) -> ExperimentTable:
    """Replay both Table II traces and report the Fig. 2 load curves."""
    del quick  # the replay is cheap; always run in full
    spec = ScenarioSpec(
        name="fig2-router-load", systems=(None,), seeds=(seed,),
        workload=None, axes={"trace": tuple(TRACES)},
        runner="repro.experiments.fig2:replay_cell")
    table = cells_table(
        SweepEngine(jobs=jobs).run(spec),
        "Fig. 2: CPU/Memory usage of the WiFi router during replay",
        {"packets": "packets", "flows": "flows", "total_mb": "total_mb",
         "apps": "apps", "mean_cpu_pct": "mean_cpu_percent",
         "peak_cpu_pct": "peak_cpu_percent",
         "mean_mem_mb": "mean_memory_mb",
         "peak_mem_mb": "peak_memory_mb"}, identity=False)
    table.notes.append(
        "paper: high-rate replay keeps CPU well below 50% and memory "
        "around 120 MB of the router's 256 MB")
    return table
