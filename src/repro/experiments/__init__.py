"""Experiment harness: one module per paper table/figure, plus ablations.

Every module exposes ``run(quick=True, seed=0, jobs=1)`` returning
:class:`~repro.experiments.common.ExperimentTable` objects; ``quick``
shortens simulated durations for CI, and ``REPRO_FULL=1`` in the
environment forces paper-length (one-hour) runs regardless.

Experiments do not orchestrate workloads directly: each declares one or
more :class:`~repro.runner.spec.ScenarioSpec` objects and hands them to
the :class:`~repro.runner.engine.SweepEngine` (``jobs > 1`` fans cells
out over a process pool with identical results — see
``docs/experiments.md``), then folds the per-cell metrics into tables.

| Paper artifact | Module |
|---|---|
| Table I        | :mod:`repro.experiments.table1` |
| Table II/Fig 2 | :mod:`repro.experiments.fig2` |
| Fig 11a/b/c    | :mod:`repro.experiments.fig11` |
| Tables IV-VI   | :mod:`repro.experiments.pacm_tables` |
| Fig 12         | :mod:`repro.experiments.fig12` |
| Fig 13a/b/c    | :mod:`repro.experiments.fig13` |
| Fig 14         | :mod:`repro.experiments.fig14` |
| Table VII      | :mod:`repro.experiments.table7` |
| (extensions)   | :mod:`repro.experiments.ablations` |
"""

from repro.experiments.common import ExperimentTable, effective_duration

__all__ = ["ExperimentTable", "effective_duration"]
