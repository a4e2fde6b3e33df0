import pytest

from bench.stats import (
    highest_supported_percentile,
    iqr_share,
    percentile,
)


@pytest.mark.parametrize("count, expected", [
    (9, 50.0),        # no tail percentile has 10 samples beyond it
    (40, 75.0),       # 10 beyond p75
    (100, 90.0),
    (199, 90.0),      # 9.95 beyond p95: not enough
    (200, 95.0),
    (999, 95.0),
    (1000, 99.0),     # exactly 10 beyond p99
    (9999, 99.0),
    (10000, 99.9),
])
def test_highest_percentile_with_ten_samples_beyond(count, expected):
    assert highest_supported_percentile(count) == expected


def test_ceiling_caps_the_percentile():
    assert highest_supported_percentile(50000, ceiling=99.0) == 99.0


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50.0) == 50.0
    assert percentile(values, 99.0) == 99.0
    assert percentile(values, 100.0) == 100.0
    assert percentile([3.0], 99.0) == 3.0
    with pytest.raises(ValueError):
        percentile([], 50.0)


def test_iqr_share():
    assert iqr_share([5.0]) == 0.0
    assert iqr_share([10.0] * 8) == 0.0
    # quartiles of 1..9 (exclusive method) are 2.5 and 7.5, median 5
    assert iqr_share([float(v) for v in range(1, 10)]) == pytest.approx(1.0)
