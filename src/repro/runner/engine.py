"""The sweep engine: execute cells in-process or across a worker pool.

Execution contract:

* Cells are **independent** — each builds its own simulator, testbed,
  and system from its picklable spec, so running them in any order, in
  any process, yields the same per-cell numbers.
* Ordering is **deterministic** — results always come back in cell
  index order (the spec's expansion order), whatever the completion
  order across workers, so serial and parallel runs render
  byte-identical tables and JSON.
* The pool is **spawn-based** — workers re-import ``repro`` from
  scratch and resolve systems/runners through the registry; forked
  state (open simulators, RNG positions) can never leak into a cell.

A cell runner returns either a bare metrics dict or an envelope
``{"metrics": ..., "system_name": ..., "telemetry": ...}``; the engine
normalises both into :class:`CellResult`.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import sys
import typing as _t

from repro.errors import ConfigError
from repro.runner.registry import resolve_runner
from repro.runner.spec import Cell, ScenarioSpec

if _t.TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.telemetry.registry import Telemetry

__all__ = ["CellResult", "SweepResult", "SweepEngine", "run_cell"]


@dataclasses.dataclass
class CellResult:
    """One executed cell: its spec plus the metrics it produced."""

    cell: Cell
    #: Resolved system name ("-" for system-less runners).
    system_name: str
    #: JSON-able metric name -> value.
    metrics: dict[str, object]
    #: Telemetry metric records, when the cell asked for a snapshot.
    telemetry: list[dict[str, object]] | None = None
    #: Mergeable registry shard (``Telemetry.state_dict``), when the
    #: cell asked for telemetry; folds via ``merged_telemetry``.
    telemetry_state: dict[str, object] | None = None

    def row(self) -> dict[str, object]:
        """Identity columns + metrics, the generic table row shape."""
        row: dict[str, object] = {"scenario": self.cell.scenario,
                                  "system": self.system_name,
                                  "seed": self.cell.seed}
        row.update(self.cell.coords)
        row.update(self.metrics)
        return row


@dataclasses.dataclass
class SweepResult:
    """All cell results of one scenario, in cell-index order."""

    spec: ScenarioSpec
    cells: list[CellResult]

    def by_system(self) -> dict[str, list[CellResult]]:
        grouped: dict[str, list[CellResult]] = {}
        for result in self.cells:
            grouped.setdefault(result.system_name, []).append(result)
        return grouped

    def metric(self, name: str) -> list[object]:
        return [result.metrics.get(name) for result in self.cells]

    def to_json(self) -> str:
        """Deterministic JSON: sorted keys, cells in expansion order."""
        payload = {
            "scenario": self.spec.name,
            "cells": [{
                "index": result.cell.index,
                "system": result.system_name,
                "seed": result.cell.seed,
                "coords": result.cell.coords,
                "metrics": result.metrics,
            } for result in self.cells],
        }
        return json.dumps(payload, sort_keys=True, indent=2, default=str)

    def merged_telemetry(self) -> "Telemetry":
        """Every cell's registry shard folded into one fleet registry.

        Counters/gauges sum, histograms merge (exact sample multisets
        or sketch buckets), and the fold is order-independent — the
        merged registry's exports are byte-identical whether the sweep
        ran serial or pooled.  Cells that carried no shard (telemetry
        off, bespoke runners) contribute nothing; raises when *no* cell
        carried one, since silently returning an empty registry would
        read as "the sweep recorded nothing".
        """
        from repro.errors import TelemetryError
        from repro.telemetry.registry import Telemetry

        states = [result.telemetry_state for result in self.cells
                  if result.telemetry_state is not None]
        if not states:
            raise TelemetryError(
                f"sweep {self.spec.name!r} carried no telemetry "
                f"shards (run with telemetry enabled)")
        return Telemetry.from_states(states)


def run_cell(cell: Cell) -> dict[str, object]:
    """Execute one cell in the current process (the pool's map target).

    Returns a plain dict (never a :class:`CellResult`) so the payload
    crossing the process boundary stays primitive and picklable.
    """
    runner = resolve_runner(cell.runner)
    outcome = runner(cell)
    if not isinstance(outcome, dict):
        raise ConfigError(
            f"runner {cell.runner!r} returned {type(outcome).__name__}, "
            "expected a dict of metrics")
    if "metrics" in outcome:
        envelope = dict(outcome)
    else:
        envelope = {"metrics": outcome}
    envelope.setdefault("system_name", cell.system_label())
    envelope["index"] = cell.index
    return envelope


class SweepEngine:
    """Executes a :class:`ScenarioSpec`'s cells and collects results.

    ``jobs=1`` runs everything in-process (no pool, easiest to debug);
    ``jobs>1`` fans cells out over a spawn pool of at most ``jobs``
    workers.  Both paths produce identical :class:`SweepResult`\\ s.
    """

    def __init__(self, jobs: int = 1, mp_context: str = "spawn") -> None:
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.mp_context = mp_context
        #: Why the last :meth:`run` dropped to serial execution despite
        #: ``jobs>1`` (None when the pool ran or was never requested).
        self.serial_fallback_reason: str | None = None

    def run(self, spec: ScenarioSpec) -> SweepResult:
        cells = spec.expand()
        self.serial_fallback_reason = None
        jobs = self.jobs
        if jobs > 1 and (os.cpu_count() or 1) <= 1:
            # A pool of spawn workers on a single-CPU host only adds
            # process startup cost; run the cells in-process instead.
            self.serial_fallback_reason = (
                f"single-CPU host (os.cpu_count()={os.cpu_count()!r})")
            print(f"sweep {spec.name!r}: falling back to serial "
                  f"execution: {self.serial_fallback_reason}",
                  file=sys.stderr)
            jobs = 1
        if jobs == 1 or len(cells) <= 1:
            envelopes = [run_cell(cell) for cell in cells]
        else:
            envelopes = self._run_pool(cells)
        by_index = {int(_t.cast(int, envelope["index"])): envelope
                    for envelope in envelopes}
        results = []
        for cell in cells:
            envelope = by_index[cell.index]
            results.append(CellResult(
                cell=cell,
                system_name=_t.cast(str, envelope["system_name"]),
                metrics=_t.cast(dict, envelope["metrics"]),
                telemetry=_t.cast("list | None",
                                  envelope.get("telemetry")),
                telemetry_state=_t.cast(
                    "dict | None", envelope.get("telemetry_state"))))
        return SweepResult(spec=spec, cells=results)

    def _run_pool(self, cells: list[Cell]) -> list[dict[str, object]]:
        context = multiprocessing.get_context(self.mp_context)
        workers = min(self.jobs, len(cells))
        with context.Pool(processes=workers) as pool:
            return pool.map(run_cell, cells)
