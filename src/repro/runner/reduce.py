"""Reducers: fold per-cell metrics back into tables and seed samples.

The engine hands back one metrics dict per cell; experiments want the
paper's shapes — an :class:`~repro.experiments.common.ExperimentTable`
with one row per cell (:func:`cells_table`) or one row per axis point
and one column per system (:func:`sweep_table`), or a
:class:`MultiSeedResult` with one sample per seed.  These folds are pure
functions of the (deterministically ordered) sweep result, so serial
and parallel runs reduce identically.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.errors import ConfigError
from repro.experiments.common import ExperimentTable
from repro.runner.engine import CellResult, SweepResult

if _t.TYPE_CHECKING:  # pragma: no cover - scipy loads on first use
    from repro.analysis.stats import SampleSummary

__all__ = ["MultiSeedResult", "fold_multiseed", "sweep_table",
           "cells_table", "common_numeric_metrics"]


@dataclasses.dataclass
class MultiSeedResult:
    """Per-seed metric samples for one system."""

    system_name: str
    seeds: list[int]
    #: metric name -> one value per seed, in seed order.
    samples: dict[str, list[float]]

    def summary(self, metric: str,
                confidence: float = 0.95) -> "SampleSummary":
        from repro.analysis.stats import summarize

        return summarize(self.samples[metric], confidence)


def common_numeric_metrics(cells: _t.Iterable[CellResult]) -> list[str]:
    """Every numeric metric name across cells, first-seen order.

    The shared discovery step behind :func:`cells_table` and the
    trace-analysis run diff (:func:`repro.telemetry.analysis.
    compare_systems`): insertion-ordered so serial and parallel sweeps
    list columns identically.
    """
    seen: dict[str, None] = {}
    for cr in cells:
        for name, value in cr.metrics.items():
            if isinstance(value, (int, float)):
                seen.setdefault(name)
    return list(seen)


def fold_multiseed(result: SweepResult) -> dict[str, MultiSeedResult]:
    """Per-system seed samples: system name -> MultiSeedResult.

    Every numeric metric becomes one sample list in seed order.  The
    sweep must be axis-free (one cell per system x seed); sweeping an
    axis and folding over seeds at once would silently mix populations.
    """
    folded: dict[str, MultiSeedResult] = {}
    for system_name, cell_results in result.by_system().items():
        if any(cr.cell.coords for cr in cell_results):
            raise ConfigError(
                "fold_multiseed needs an axis-free sweep; got axis "
                f"coordinates on cells of {system_name!r}")
        seeds = [cr.cell.seed for cr in cell_results]
        samples: dict[str, list[float]] = {}
        for cr in cell_results:
            for metric, value in cr.metrics.items():
                if isinstance(value, (int, float)):
                    samples.setdefault(metric, []).append(float(value))
        folded[system_name] = MultiSeedResult(
            system_name=system_name, seeds=seeds, samples=samples)
    return folded


def sweep_table(result: SweepResult, title: str, axis: str,
                metric: str,
                axis_column: str | None = None,
                reducer: _t.Callable[[list[float]], float] | None = None,
                ) -> ExperimentTable:
    """The paper's sweep shape: axis points as rows, systems as columns.

    ``metric`` is read from every cell; multiple seeds per (point,
    system) reduce via ``reducer`` (default: mean).
    """
    axis_column = axis_column or axis
    systems = _output_systems(result)
    table = ExperimentTable(title=title,
                            columns=[axis_column, *systems])
    grouped: dict[object, dict[str, list[float]]] = {}
    labels: list[object] = []
    for cr in result.cells:
        label = cr.cell.coords.get(axis)
        if label not in grouped:
            grouped[label] = {}
            labels.append(label)
        grouped[label].setdefault(cr.system_name, []).append(
            _numeric(cr, metric))
    fold = reducer or (lambda values: sum(values) / len(values))
    for label in labels:
        row: dict[str, object] = {axis_column: label}
        for system in systems:
            values = grouped[label].get(system)
            if values:
                row[system] = fold(values)
        table.rows.append(row)
    return table


def cells_table(result: SweepResult, title: str | None = None,
                metrics: _t.Sequence[str] | _t.Mapping[str, str]
                | None = None,
                identity: bool = True,
                labels: _t.Mapping[str, _t.Sequence[object]]
                | None = None,
                ints: _t.Collection[str] = (),
                ) -> ExperimentTable:
    """The flat shape: one row per cell, in cell order.

    Columns are ``system`` and ``seed`` (unless ``identity`` is off),
    then ``labels``, then the spec's axis coordinates, then the metrics.
    This is the CLI ``sweep`` output and every per-cell paper table.

    * ``metrics`` — metric names, or a column -> metric mapping that
      renames; default every numeric metric, first-seen order.
    * ``labels`` — column -> one value per cell, for a knob a sweep
      varies through its ``systems`` factories rather than an axis.
    * ``ints`` — columns cast to ``int`` (counts render without
      decimals).
    """
    if metrics is None:
        metrics = common_numeric_metrics(result.cells)
    sources = (dict(metrics) if isinstance(metrics, _t.Mapping)
               else {name: name for name in metrics})
    labels = labels or {}
    axis_columns = list(result.spec.axes)
    identity_columns = ["system", "seed"] if identity else []
    table = ExperimentTable(
        title=title or f"Sweep: {result.spec.name}",
        columns=[*identity_columns, *labels, *axis_columns, *sources])
    for index, cr in enumerate(result.cells):
        row: dict[str, object] = (
            {"system": cr.system_name, "seed": cr.cell.seed}
            if identity else {})
        for column, values in labels.items():
            row[column] = values[index]
        for axis in axis_columns:
            row[axis] = cr.cell.coords.get(axis)
        for column, name in sources.items():
            if name in cr.metrics:
                value = cr.metrics[name]
                row[column] = (int(_t.cast(float, value))
                               if column in ints else value)
        table.rows.append(row)
    return table


def _output_systems(result: SweepResult) -> list[str]:
    ordered: dict[str, None] = {}
    for cr in result.cells:
        ordered.setdefault(cr.system_name)
    return list(ordered)


def _numeric(cr: CellResult, metric: str) -> float:
    value = cr.metrics.get(metric)
    if not isinstance(value, (int, float)):
        raise ConfigError(
            f"cell {cr.cell.index} ({cr.system_name}, seed "
            f"{cr.cell.seed}) has no numeric metric {metric!r}")
    return float(value)
