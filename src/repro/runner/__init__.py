"""Declarative scenario engine: specs -> cells -> fan-out -> reduce.

Every experiment in this repository is, at heart, the same shape: a
parameter sweep over (systems x seeds x one or two workload axes), each
cell an independent simulation whose metrics fold back into a paper
table.  This package makes that shape first-class:

* :mod:`repro.runner.spec` — :class:`ScenarioSpec` declares the sweep;
  :meth:`ScenarioSpec.expand` enumerates deterministic :class:`Cell`\\ s.
* :mod:`repro.runner.registry` — system names and ``"module:function"``
  runner paths, so cells travel between processes as picklable specs,
  never live objects.
* :mod:`repro.runner.engine` — :class:`SweepEngine` executes cells
  in-process or across a spawn-safe ``multiprocessing`` pool; results
  come back in cell order regardless of completion order.
* :mod:`repro.runner.reduce` — folds per-cell metric dicts into
  :class:`~repro.experiments.common.ExperimentTable` rows and
  :class:`MultiSeedResult` samples.

See ``docs/experiments.md`` for the schema and the determinism
guarantees.
"""

from repro.runner.engine import CellResult, SweepEngine, SweepResult
from repro.runner.registry import resolve_runner, resolve_system, \
    system_names
from repro.runner.spec import Cell, ScenarioSpec, SweepPoint
from repro.runner.reduce import (
    MultiSeedResult,
    cells_table,
    fold_multiseed,
    sweep_table,
)

__all__ = [
    "Cell",
    "CellResult",
    "MultiSeedResult",
    "ScenarioSpec",
    "SweepEngine",
    "SweepPoint",
    "SweepResult",
    "cells_table",
    "fold_multiseed",
    "resolve_runner",
    "resolve_system",
    "sweep_table",
    "system_names",
]
