"""Tests for the statistics package and multi-seed replication."""

import pytest

from repro.analysis import (
    confidence_interval,
    paired_comparison,
    summarize,
)
from repro.apps import DummyAppParams, WorkloadConfig
from repro.baselines import ApeCacheSystem
from repro.errors import ConfigError
from repro.runner import ScenarioSpec, SweepEngine, fold_multiseed
from repro.sim import MINUTE
from repro.testbed import TestbedConfig


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def test_summarize_basics():
    summary = summarize([10.0, 12.0, 8.0, 11.0, 9.0])
    assert summary.count == 5
    assert summary.mean == pytest.approx(10.0)
    assert summary.ci_low < 10.0 < summary.ci_high
    assert summary.stddev == pytest.approx(1.5811, abs=1e-3)


def test_ci_narrows_with_more_samples():
    few = summarize([9.0, 11.0])
    many = summarize([9.0, 11.0] * 20)
    assert many.ci_half_width < few.ci_half_width


def test_ci_degenerate_cases():
    assert confidence_interval([5.0]) == (5.0, 5.0)
    assert confidence_interval([3.0, 3.0, 3.0]) == (3.0, 3.0)
    with pytest.raises(ValueError):
        confidence_interval([])
    with pytest.raises(ValueError):
        confidence_interval([1.0], confidence=1.5)


def test_ci_matches_scipy_reference():
    from scipy import stats as scipy_stats
    values = [3.1, 2.7, 3.4, 2.9, 3.3, 3.0]
    low, high = confidence_interval(values, 0.95)
    mean = sum(values) / len(values)
    sem = scipy_stats.sem(values)
    expected = scipy_stats.t.interval(0.95, len(values) - 1,
                                      loc=mean, scale=sem)
    assert low == pytest.approx(expected[0])
    assert high == pytest.approx(expected[1])


def test_paired_comparison_detects_consistent_difference():
    first = [10.0, 11.0, 9.5, 10.5, 10.2]
    second = [12.0, 13.1, 11.4, 12.6, 12.3]
    comparison = paired_comparison(first, second)
    assert comparison.mean_difference < 0
    assert comparison.significant


def test_paired_comparison_inconclusive_on_noise():
    first = [10.0, 12.0, 9.0, 13.0]
    second = [11.0, 10.5, 12.5, 9.5]
    comparison = paired_comparison(first, second)
    assert not comparison.significant


def test_paired_comparison_length_mismatch():
    with pytest.raises(ValueError):
        paired_comparison([1.0], [1.0, 2.0])


# ----------------------------------------------------------------------
# Multi-seed replication (small workloads)
# ----------------------------------------------------------------------
def small_config():
    return WorkloadConfig(
        n_apps=5, duration_s=2 * MINUTE,
        dummy_params=DummyAppParams(min_objects=3, max_objects=4),
        testbed=TestbedConfig(jitter_fraction=0.0))


def replicate(seeds):
    spec = ScenarioSpec(name="replicate", systems=(ApeCacheSystem,),
                        seeds=seeds, workload=small_config())
    (result,) = fold_multiseed(SweepEngine().run(spec)).values()
    return result


def test_replicate_collects_per_seed_samples():
    result = replicate(seeds=(0, 1, 2))
    assert result.system_name == "APE-CACHE"
    assert result.seeds == [0, 1, 2]
    latencies = result.samples["mean_app_latency_ms"]
    assert len(latencies) == 3
    assert len(set(latencies)) > 1  # seeds actually vary the workload
    summary = result.summary("mean_app_latency_ms")
    assert summary.count == 3


def test_replicate_requires_seeds():
    with pytest.raises(ConfigError, match="empty seed list"):
        replicate(seeds=())


def test_compare_ape_vs_edge_is_significant():
    # The comparison behind `repro.cli diff --systems`.
    from repro.telemetry.analysis import compare_systems

    table = compare_systems("APE-CACHE", "Edge Cache", seeds=(0, 1, 2),
                            n_apps=5, duration_s=2 * MINUTE)
    (row,) = [row for row in table.rows
              if row["metric"] == "mean_app_latency_ms"]
    # APE-CACHE is faster on every seed: positive delta (B - A) and
    # a significant verdict.
    assert float(row["delta"]) > 0
    assert row["verdict"] == "significant"
