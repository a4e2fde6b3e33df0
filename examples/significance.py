#!/usr/bin/env python
"""Is the headline claim statistically solid? Multi-seed replication.

Re-runs the workload at several seeds per system and puts confidence
intervals on the latency differences — APE-CACHE vs each baseline —
using paired per-seed comparisons.  One scenario declares every
system x seed; ``fold_multiseed`` turns its cells into per-system
seed samples.

Run:  python examples/significance.py
"""

from repro.analysis import paired_comparison
from repro.apps import DummyAppParams, WorkloadConfig
from repro.runner import ScenarioSpec, SweepEngine, fold_multiseed
from repro.sim import MINUTE
from repro.testbed import TestbedConfig

SEEDS = (0, 1, 2, 3, 4)
METRIC = "mean_app_latency_ms"


def config():
    # 28 apps put the 5 MB AP cache under pressure (the regime where
    # PACM and LRU diverge — see Table VI's knee past ~15 apps).
    return WorkloadConfig(n_apps=28, duration_s=4 * MINUTE,
                          dummy_params=DummyAppParams(),
                          testbed=TestbedConfig())


def main() -> None:
    print(f"replicating across seeds {SEEDS}...\n")
    print(f"{'system':15s} {METRIC}")
    spec = ScenarioSpec(
        name="significance",
        systems=("APE-CACHE", "APE-CACHE-LRU", "Wi-Cache", "Edge Cache"),
        seeds=SEEDS, workload=config())
    results = fold_multiseed(SweepEngine().run(spec))
    for name, result in results.items():
        print(f"{name:15s} {result.summary(METRIC)}")

    ape = results["APE-CACHE"].samples[METRIC]
    print("\npaired differences (negative = APE-CACHE faster):")
    for rival in ("APE-CACHE-LRU", "Wi-Cache", "Edge Cache"):
        comparison = paired_comparison(ape, results[rival].samples[METRIC])
        print(f"  vs {rival:15s} {comparison}")


if __name__ == "__main__":
    main()
