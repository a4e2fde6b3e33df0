"""QuantileSketch: error-bound parity, merge algebra, serialization."""

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TelemetryError
from repro.telemetry import (
    DEFAULT_RELATIVE_ERROR,
    Histogram,
    QuantileSketch,
    percentile,
)

QS = (50.0, 90.0, 95.0, 99.0)


def _nearest_rank(values, q):
    """The exact nearest-rank percentile the sketch approximates."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _streams():
    """Deterministic latency-shaped workloads (name, values)."""
    rng = random.Random(42)
    yield "uniform", [rng.uniform(0.05, 400.0) for _ in range(5000)]
    yield "exponential", [rng.expovariate(1.0 / 20.0)
                          for _ in range(5000)]
    yield "bimodal", [rng.uniform(0.5, 2.0) if rng.random() < 0.9
                      else rng.uniform(80.0, 120.0)
                      for _ in range(5000)]


def _filled(values, relative_error=DEFAULT_RELATIVE_ERROR):
    sketch = QuantileSketch(relative_error=relative_error)
    for value in values:
        sketch.add(value)
    return sketch


def _within_error_of_percentile(estimate, values, q, alpha):
    """``percentile(values, q)`` interpolates between the two samples
    around its rank; the sketch answers by nearest rank, so its
    estimate is within ``alpha`` of that bracket."""
    ordered = sorted(values)
    rank = q / 100.0 * (len(ordered) - 1)
    exact = percentile(values, q)
    low = min(ordered[math.floor(rank)], exact)
    high = max(ordered[math.ceil(rank)], exact)
    return (1 - alpha) * low <= estimate <= (1 + alpha) * high


# ----------------------------------------------------------------------
# The relative-error guarantee
# ----------------------------------------------------------------------
@pytest.mark.parametrize("alpha", [0.01, 0.05])
def test_percentiles_stay_within_the_declared_relative_error(alpha):
    for name, values in _streams():
        sketch = _filled(values, relative_error=alpha)
        for q in QS:
            truth = _nearest_rank(values, q)
            estimate = sketch.quantile(q)
            assert abs(estimate - truth) <= alpha * truth + 1e-9, \
                f"{name} p{q:g}: {estimate} vs exact {truth} " \
                f"(alpha={alpha})"
        if alpha == DEFAULT_RELATIVE_ERROR:
            # A Histogram is this sketch at DEFAULT_RELATIVE_ERROR.
            histogram = Histogram("lat")
            for value in values:
                histogram.observe(value)
            for q in (50.0, 95.0, 99.0):
                assert _within_error_of_percentile(
                    histogram.percentile(q), values, q, alpha), \
                    f"{name} histogram p{q:g}"


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=1e-3, max_value=1e6,
                          allow_nan=False), min_size=1, max_size=300))
def test_histogram_is_exact_in_count_sum_min_max_and_bounded_in_tails(
        values):
    histogram = Histogram("lat")
    for value in values:
        histogram.observe(value)
    assert histogram.count() == len(values)
    assert histogram.sum() == sum(values)
    assert histogram.percentile(0.0) == min(values)
    assert histogram.summary()["max"] == max(values)
    for q in (50.0, 95.0, 99.0):
        assert _within_error_of_percentile(
            histogram.percentile(q), values, q, DEFAULT_RELATIVE_ERROR)


def test_extreme_quantiles_are_exact():
    _name, values = next(_streams())
    sketch = _filled(values)
    assert sketch.quantile(0.0) == min(values)
    assert sketch.quantile(100.0) == max(values)


def test_count_sum_min_max_are_exact():
    _name, values = next(_streams())
    sketch = _filled(values)
    assert sketch.count == len(values) == len(sketch)
    assert sketch.sum == pytest.approx(math.fsum(values), rel=1e-12)
    assert sketch.min == min(values)
    assert sketch.max == max(values)


def test_zero_samples_share_the_exact_zero_bucket():
    sketch = QuantileSketch()
    for _ in range(90):
        sketch.add(0.0)
    for _ in range(10):
        sketch.add(100.0)
    assert sketch.quantile(50.0) == 0.0
    assert sketch.quantile(99.0) == pytest.approx(100.0, rel=0.01)
    assert sketch.min == 0.0


def test_memory_tracks_dynamic_range_not_sample_count():
    rng = random.Random(7)
    sketch = QuantileSketch(relative_error=0.01)
    for _ in range(50_000):
        sketch.add(rng.uniform(1.0, 1000.0))
    # Bucket count is bounded by the data's log-range, not by n.
    ceiling = math.log(1000.0) / math.log(sketch._gamma) + 2
    assert sketch.bucket_count <= ceiling
    assert sketch.bucket_count < 400 < sketch.count


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
def test_relative_error_must_be_a_fraction():
    for bad in (0.0, 1.0, -0.1, 2.0):
        with pytest.raises(TelemetryError, match="relative_error"):
            QuantileSketch(relative_error=bad)


def test_negative_samples_are_rejected():
    with pytest.raises(TelemetryError, match="non-negative"):
        QuantileSketch().add(-1.0)


def test_empty_sketch_has_no_quantiles_or_extrema():
    sketch = QuantileSketch()
    with pytest.raises(TelemetryError, match="empty"):
        sketch.quantile(50.0)
    with pytest.raises(TelemetryError, match="empty"):
        _ = sketch.min
    with pytest.raises(TelemetryError, match="empty"):
        _ = sketch.max


def test_quantile_range_is_checked():
    with pytest.raises(TelemetryError, match=r"\[0, 100\]"):
        _filled([1.0]).quantile(101.0)


# ----------------------------------------------------------------------
# Merge algebra: associative, commutative, identity
# ----------------------------------------------------------------------
def _shards():
    streams = list(_streams())
    return [_filled(values) for _name, values in streams]


def _rebuild(sketch):
    """An independent copy (merge mutates the receiver)."""
    return QuantileSketch.from_state(sketch.state_dict())


def test_merge_is_commutative_to_the_byte():
    a, b, c = _shards()
    forward = _rebuild(a).merge(_rebuild(b)).merge(_rebuild(c))
    reverse = _rebuild(c).merge(_rebuild(b)).merge(_rebuild(a))
    assert json.dumps(forward.state_dict(), sort_keys=True) == \
        json.dumps(reverse.state_dict(), sort_keys=True)
    for q in QS:
        assert forward.quantile(q) == reverse.quantile(q)
    assert forward.sum == reverse.sum


def test_merge_is_associative_to_the_byte():
    a, b, c = _shards()
    left = _rebuild(a).merge(_rebuild(b))
    left.merge(_rebuild(c))
    right = _rebuild(b).merge(_rebuild(c))
    right = _rebuild(a).merge(right)
    assert json.dumps(left.state_dict(), sort_keys=True) == \
        json.dumps(right.state_dict(), sort_keys=True)


def test_merging_an_empty_sketch_is_the_identity():
    shard = _shards()[0]
    before = json.dumps(shard.state_dict(), sort_keys=True)
    shard.merge(QuantileSketch())
    assert json.dumps(shard.state_dict(), sort_keys=True) == before


def test_merged_sketch_equals_the_union_stream():
    streams = list(_streams())
    union = [value for _name, values in streams for value in values]
    merged = _shards()[0]
    for shard in _shards()[1:]:
        merged.merge(shard)
    assert merged.count == len(union)
    assert merged.sum == pytest.approx(math.fsum(union), rel=1e-12)
    assert merged.min == min(union)
    assert merged.max == max(union)
    for q in QS:
        truth = _nearest_rank(union, q)
        assert abs(merged.quantile(q) - truth) <= \
            merged.relative_error * truth + 1e-9


def test_mismatched_error_bounds_refuse_to_merge():
    with pytest.raises(TelemetryError, match="error bounds"):
        QuantileSketch(relative_error=0.01).merge(
            QuantileSketch(relative_error=0.02))


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------
def test_state_round_trip_is_byte_identical():
    sketch = _shards()[2]
    state = sketch.state_dict()
    json.dumps(state)  # JSON-able, no custom types
    revived = QuantileSketch.from_state(state)
    assert json.dumps(revived.state_dict(), sort_keys=True) == \
        json.dumps(state, sort_keys=True)
    for q in QS:
        assert revived.quantile(q) == sketch.quantile(q)
