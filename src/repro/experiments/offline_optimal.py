"""Extension experiment: PACM vs classic policies vs clairvoyant Belady.

Replays the evaluation workload's request trace through every cache
management policy offline, answering "how much of the achievable hit
ratio does PACM capture?" — an upper-bound analysis the paper does not
include but that its knapsack formulation invites.

One scenario cell per policy; each cell regenerates the (seeded, hence
identical) trace and replays it, so the sweep parallelizes cleanly.
"""

from __future__ import annotations

import typing as _t

from repro.apps.generator import DummyAppParams, generate_apps
from repro.apps.movietrailer import movietrailer_app
from repro.apps.trace import generate_request_trace
from repro.apps.virtualhome import virtualhome_app
from repro.cache.frequency import RequestFrequencyTracker
from repro.cache.offline import BeladyPolicy, OfflineCacheSimulator
from repro.cache.pacm import PacmPolicy
from repro.cache.policies import FifoPolicy, LfuPolicy, LruPolicy
from repro.errors import ConfigError
from repro.experiments.common import ExperimentTable, quick_duration
from repro.runner import ScenarioSpec, SweepEngine, cells_table
from repro.runner.spec import Cell
from repro.sim.kernel import MINUTE

__all__ = ["run", "policy_cell", "POLICY_NAMES"]

MB = 1024 * 1024
POLICY_NAMES = ("PACM", "LRU", "LFU", "FIFO", "Belady (clairvoyant)")


def _build_trace(duration_s: float, seed: int):
    apps = [movietrailer_app(), virtualhome_app()]
    apps.extend(generate_apps(28, seed=seed, params=DummyAppParams()))
    return generate_request_trace(apps, duration_s=duration_s, seed=seed)


def policy_cell(cell: Cell) -> dict[str, object]:
    """Cell runner: replay the seeded trace under one policy."""
    policy_name = str(cell.coords["policy"])
    duration_s = float(_t.cast(float, cell.params["duration_s"]))
    capacity_bytes = int(_t.cast(int, cell.params["capacity_bytes"]))
    trace = _build_trace(duration_s, cell.seed)

    observe = None
    if policy_name == "PACM":
        tracker = RequestFrequencyTracker()
        policy = PacmPolicy(tracker)
        observe = lambda request: tracker.observe(  # noqa: E731
            request.app_id, request.time_s)
    elif policy_name == "LRU":
        policy = LruPolicy()
    elif policy_name == "LFU":
        policy = LfuPolicy()
    elif policy_name == "FIFO":
        policy = FifoPolicy()
    elif policy_name == "Belady (clairvoyant)":
        policy = BeladyPolicy(trace)
    else:
        raise ConfigError(f"unknown policy {policy_name!r}; "
                          f"known: {list(POLICY_NAMES)}")

    simulator = OfflineCacheSimulator(capacity_bytes)
    result = simulator.replay(trace, policy, policy_name=policy_name,
                              observe=observe)
    summary = dict(result.summary())
    summary["trace_requests"] = len(trace)
    return summary


def run(quick: bool = True, seed: int = 0,
        capacity_bytes: int = 5 * MB, jobs: int = 1) -> ExperimentTable:
    spec = ScenarioSpec(
        name="offline-optimal", systems=(None,), seeds=(seed,),
        workload=None, axes={"policy": POLICY_NAMES},
        params={"duration_s": quick_duration(quick, quick_s=20 * MINUTE),
                "capacity_bytes": capacity_bytes},
        runner="repro.experiments.offline_optimal:policy_cell")
    result = SweepEngine(jobs=jobs).run(spec)
    table = cells_table(
        result, "Offline replay: PACM vs classic policies vs Belady bound",
        ["hit_ratio", "high_priority_hit_ratio", "bytes_fetched_mb",
         "evictions"], identity=False, ints=("evictions",))
    trace_requests = int(_t.cast(int,
                                 result.cells[-1].metrics["trace_requests"]))

    belady = float(_t.cast(float, table.rows[-1]["hit_ratio"]))
    pacm = float(_t.cast(float, table.rows[0]["hit_ratio"]))
    if belady > 0:
        table.notes.append(
            f"PACM captures {100 * pacm / belady:.0f}% of the "
            "clairvoyant hit ratio on this trace "
            f"({trace_requests} requests, {capacity_bytes // MB} MB "
            "cache)")
    return table
