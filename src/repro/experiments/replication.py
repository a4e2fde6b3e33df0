"""Extension experiment: multi-seed replication of the headline claim.

Single runs are point estimates; this experiment replicates the default
workload across seeds for every system and reports mean app-level
latency with 95% confidence intervals, plus paired per-seed differences
against APE-CACHE — the statistical backing for "who wins and by how
much".  One spec covers every system x seed, so ``jobs`` fans out all
of its cells at once.
"""

from __future__ import annotations

from repro.analysis import paired_comparison
from repro.apps.generator import DummyAppParams
from repro.apps.workload import WorkloadConfig
from repro.experiments.common import ExperimentTable, quick_duration
from repro.runner import ScenarioSpec, SweepEngine, fold_multiseed, \
    system_names
from repro.sim.kernel import MINUTE
from repro.testbed import TestbedConfig

__all__ = ["run"]

METRIC = "mean_app_latency_ms"


def run(quick: bool = True, seed: int = 0,
        jobs: int = 1) -> ExperimentTable:
    seeds = tuple(range(seed, seed + (3 if quick else 5)))
    spec = ScenarioSpec(
        name="replication", systems=tuple(system_names()), seeds=seeds,
        workload=WorkloadConfig(
            n_apps=28, duration_s=quick_duration(quick, quick_s=3 * MINUTE),
            dummy_params=DummyAppParams(), testbed=TestbedConfig()))
    results = fold_multiseed(SweepEngine(jobs=jobs).run(spec))

    table = ExperimentTable(
        title="Replication: app-level latency across seeds (95% CI)",
        columns=["system", "mean_ms", "ci_low_ms", "ci_high_ms",
                 "vs_ape_delta_ms", "significant"])
    ape_samples = results["APE-CACHE"].samples[METRIC]
    for name, replicated in results.items():
        summary = replicated.summary(METRIC)
        if name == "APE-CACHE":
            delta, significant = 0.0, "-"
        else:
            comparison = paired_comparison(
                replicated.samples[METRIC], ape_samples)
            delta = comparison.mean_difference
            significant = "yes" if comparison.significant else "no"
        table.add_row(system=name, mean_ms=summary.mean,
                      ci_low_ms=summary.ci_low,
                      ci_high_ms=summary.ci_high,
                      vs_ape_delta_ms=delta, significant=significant)
    table.notes.append(
        f"seeds {list(seeds)}; positive delta = slower than APE-CACHE; "
        "paired per-seed comparison")
    return table
