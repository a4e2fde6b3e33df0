"""Experiment harness: one module per paper table/figure, plus extensions.

:data:`EXPERIMENTS` is the one list of experiments: command name ->
(description, ``"module:function"``), in ``repro.cli all`` order.  The
CLI and ``tools/make_experiments_report.py`` both read it, and resolve
an entry only when it runs (:func:`repro.runner.registry.resolve_path`),
so importing this package loads no experiment module.

Every experiment function takes ``(quick, seed, jobs)`` and returns one
or more :class:`~repro.experiments.common.ExperimentTable` objects;
``quick`` shortens simulated durations for CI.  Experiments do not
orchestrate workloads directly: each declares one or more
:class:`~repro.runner.spec.ScenarioSpec` objects and hands them to the
:class:`~repro.runner.engine.SweepEngine` (``jobs > 1`` fans cells out
over a process pool with identical results — see
``docs/experiments.md``), then folds the per-cell metrics into tables.
"""

from repro.experiments.common import ExperimentTable

__all__ = ["EXPERIMENTS", "ExperimentTable"]

#: name -> (description, "module:function" taking (quick, seed, jobs)).
EXPERIMENTS: dict[str, tuple[str, str]] = {
    "table1": ("Akamai DNS/RTT/hops measurement (Table I)",
               "repro.experiments.table1:run"),
    "fig2": ("router load under traffic replay (Table II / Fig. 2)",
             "repro.experiments.fig2:run"),
    "fig11": ("object-level caching latency (Fig. 11a/11c)",
              "repro.experiments.fig11:run"),
    "fig11b": ("DNS-Cache query overhead (Fig. 11b)",
               "repro.experiments.fig11:run_lookup_overhead"),
    "tables456": ("PACM vs LRU hit ratios (Tables IV/V/VI)",
                  "repro.experiments.pacm_tables:run"),
    "fig12": ("real-world apps' latency (Fig. 12)",
              "repro.experiments.fig12:run"),
    "fig13": ("app-level latency sweeps (Fig. 13a/b/c)",
              "repro.experiments.fig13:run"),
    "fig14": ("AP resource overhead (Fig. 14)",
              "repro.experiments.fig14:run"),
    "table7": ("programming effort comparison (Table VII)",
               "repro.experiments.table7:run"),
    "ablations": ("design-choice ablations (beyond the paper)",
                  "repro.experiments.ablations:run"),
    "offline": ("offline policy replay vs clairvoyant Belady bound",
                "repro.experiments.offline_optimal:run"),
    "multiap": ("distributed Wi-Cache scaling with AP count",
                "repro.experiments.multi_ap:run"),
    "replication": ("multi-seed replication with confidence intervals",
                    "repro.experiments.replication:run"),
}
