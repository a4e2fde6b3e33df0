"""The ``"workload"`` cell runner and its telemetry hand-off.

A *cell runner* is a plain function ``(Cell) -> dict`` executing one
unit of sweep work and returning JSON-able metrics.  Everything
workload-shaped goes through :func:`workload_cell` here — a sweep over
a system knob passes one picklable factory per knob value as the spec's
``systems`` (e.g. ``functools.partial(ApeCacheSystem, config)``).
Experiments with bespoke measurement loops (probes, resource samplers,
offline replays) define their own runners next to the experiment and
reference them by ``"module:function"`` path.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.apps.workload import Workload
from repro.errors import ConfigError
from repro.runner.registry import resolve_system
from repro.runner.spec import Cell

__all__ = ["workload_cell", "telemetry_snapshot", "telemetry_state"]


def telemetry_snapshot(workload: Workload) -> list[dict[str, object]]:
    """The finished run's metric records (deterministic ordering)."""
    from repro.telemetry.export import metric_records

    bed = getattr(workload, "_last_bed", None)
    if bed is None:
        return []
    return metric_records(bed.telemetry)


def telemetry_state(workload: Workload) -> dict[str, object] | None:
    """The finished run's mergeable registry shard.

    This is the raw :meth:`~repro.telemetry.Telemetry.state_dict` —
    unlike :func:`telemetry_snapshot`'s rendered records it can be
    *folded*: the engine merges every cell's shard into one fleet
    registry (``SweepResult.merged_telemetry``), byte-identically
    regardless of worker count or completion order.
    """
    bed = getattr(workload, "_last_bed", None)
    if bed is None or not bed.telemetry.enabled:
        return None
    return bed.telemetry.state_dict()


def workload_cell(cell: Cell) -> dict[str, object]:
    """The default runner: one seeded workload run against one system.

    Metrics are the run's :meth:`~repro.apps.workload.WorkloadResult.
    summary` plus ``ap:``-prefixed AP cache statistics.  Params:

    * ``app_metrics`` — app ids whose per-app mean/p95 latency to add
      as ``app:<id>:mean_ms`` / ``app:<id>:p95_ms`` (Fig. 12 shape).
    """
    if cell.workload is None:
        raise ConfigError(f"cell {cell.index} of {cell.scenario!r} has "
                          "no workload config")
    if cell.system is None:
        raise ConfigError(f"cell {cell.index} of {cell.scenario!r} "
                          "names no system to evaluate")
    config = cell.workload
    if cell.telemetry and not config.testbed.enable_telemetry:
        config = dataclasses.replace(
            config, testbed=dataclasses.replace(config.testbed,
                                                enable_telemetry=True))
    system = resolve_system(cell.system)
    assert system is not None
    workload = Workload(config)
    result = workload.run(system)

    metrics: dict[str, object] = dict(result.summary())
    for key, value in sorted(result.ap_stats.items()):
        metrics[f"ap:{key}"] = value
    for app_id in _t.cast(_t.Sequence[str],
                          cell.params.get("app_metrics", ())):
        metrics[f"app:{app_id}:mean_ms"] = \
            result.mean_app_latency_s(app_id) * 1e3
        metrics[f"app:{app_id}:p95_ms"] = \
            result.tail_app_latency_s(app_id) * 1e3
    payload: dict[str, object] = {"system_name": system.name,
                                  "metrics": metrics}
    if cell.telemetry:
        payload["telemetry"] = telemetry_snapshot(workload)
        payload["telemetry_state"] = telemetry_state(workload)
    return payload
