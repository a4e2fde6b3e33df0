"""Instrument unit tests: labels, aggregation, percentiles."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TelemetryError
from repro.telemetry import (
    DEFAULT_RELATIVE_ERROR,
    Counter,
    Gauge,
    Histogram,
    labelset,
    percentile,
)


# ----------------------------------------------------------------------
# Labels
# ----------------------------------------------------------------------
def test_labelset_is_sorted_and_stringified():
    assert labelset({"tier": "ap", "app": 7}) == \
        (("app", "7"), ("tier", "ap"))
    assert labelset({}) == ()


# ----------------------------------------------------------------------
# Counter
# ----------------------------------------------------------------------
def test_counter_value_is_exact_label_match():
    counter = Counter("cache.lookups")
    counter.inc(app="maps", outcome="hit")
    counter.inc(app="maps", outcome="miss")
    counter.inc(2.0, app="mail", outcome="hit")
    assert counter.value(app="maps", outcome="hit") == 1.0
    assert counter.value(app="maps") == 0.0  # no such exact label set


def test_counter_total_aggregates_label_subsets():
    counter = Counter("client.fetches")
    counter.inc(app="maps", outcome="hit")
    counter.inc(app="maps", outcome="miss")
    counter.inc(3.0, app="mail", outcome="hit")
    assert counter.total() == 5.0
    assert counter.total(app="maps") == 2.0
    assert counter.total(outcome="hit") == 4.0
    assert counter.total(app="mail", outcome="hit") == 3.0
    assert counter.total(app="absent") == 0.0


def test_counter_rejects_negative_increment():
    counter = Counter("c")
    with pytest.raises(TelemetryError):
        counter.inc(-1.0)


def test_counter_labelsets_sorted_regardless_of_call_order():
    counter = Counter("c")
    counter.inc(tier="edge")
    counter.inc(tier="ap")
    assert counter.labelsets() == [(("tier", "ap"),), (("tier", "edge"),)]


# ----------------------------------------------------------------------
# Gauge
# ----------------------------------------------------------------------
def test_gauge_set_and_add():
    gauge = Gauge("cache.used_bytes")
    gauge.set(100.0, tier="ap")
    gauge.add(-30.0, tier="ap")
    gauge.add(5.0, tier="device")
    assert gauge.value(tier="ap") == 70.0
    assert gauge.value(tier="device") == 5.0
    assert gauge.value(tier="edge") == 0.0


# ----------------------------------------------------------------------
# percentile
# ----------------------------------------------------------------------
def test_percentile_basics():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 50) == 3.0
    assert percentile(values, 100) == 5.0
    assert percentile(values, 25) == pytest.approx(2.0)


def test_percentile_interpolates():
    assert percentile([1.0, 2.0], 50) == pytest.approx(1.5)
    assert percentile([0.0, 10.0], 95) == pytest.approx(9.5)


def test_percentile_single_value():
    assert percentile([7.0], 95) == 7.0


def test_percentile_validation():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False), min_size=1, max_size=50),
       st.floats(min_value=0, max_value=100))
def test_percentile_matches_numpy(values, q):
    import numpy as np
    assert percentile(values, q) == pytest.approx(
        float(np.percentile(values, q)), rel=1e-9, abs=1e-9)


# ----------------------------------------------------------------------
# Histogram statistics
# ----------------------------------------------------------------------
def test_histogram_default_buckets_cover_paper_range():
    hist = Histogram("lat")
    hist.observe(0.5)       # a WiFi hop
    hist.observe(7.0)       # an AP hit
    hist.observe(30.0)      # an edge retrieval
    hist.observe(4000.0)    # pathological origin miss
    # Log-buckets have no overflow: every sample keeps its own bucket,
    # and the largest is reported exactly.
    [(_key, sketch)] = hist.series()
    assert sketch.bucket_count == 4
    assert sketch.cumulative_buckets()[-1][1] == hist.count() == 4
    assert hist.percentile(100.0) == 4000.0
    assert hist.percentile(50.0) == pytest.approx(
        7.0, rel=DEFAULT_RELATIVE_ERROR)


def test_histogram_percentiles_are_within_the_sketch_error():
    hist = Histogram("lat")
    samples = [float(value) for value in range(1, 101)]
    for value in samples:
        hist.observe(value)
    # The sketch answers by nearest rank, percentile() interpolates
    # between the two samples around the rank: the estimate is within
    # DEFAULT_RELATIVE_ERROR of that bracket.
    alpha = DEFAULT_RELATIVE_ERROR
    for q in (50.0, 95.0, 99.0):
        rank = q / 100.0 * (len(samples) - 1)
        low, high = samples[math.floor(rank)], samples[math.ceil(rank)]
        assert low <= percentile(samples, q) <= high
        assert (1 - alpha) * low <= hist.percentile(q) \
            <= (1 + alpha) * high
    assert hist.percentile(0.0) == 1.0
    assert hist.percentile(100.0) == 100.0
    assert hist.mean() == pytest.approx(50.5)


def test_histogram_label_subset_aggregation():
    hist = Histogram("client.retrieval_ms")
    hist.observe(5.0, app="maps", source="ap-hit")
    hist.observe(50.0, app="maps", source="edge")
    hist.observe(7.0, app="mail", source="ap-hit")
    assert hist.count(source="ap-hit") == 2
    assert hist.sum(source="ap-hit") == 12.0
    assert hist.summary(app="maps", source="edge")["max"] == 50.0
    assert hist.count() == 3
    assert hist.sum() == pytest.approx(62.0)


def test_histogram_empty_reads_raise_or_report_zero():
    hist = Histogram("lat")
    with pytest.raises(TelemetryError):
        hist.mean()
    with pytest.raises(TelemetryError):
        hist.percentile(50.0)
    assert hist.summary() == {"count": 0.0}
