"""Order statistics the benchmark reports."""

from __future__ import annotations

import math
import statistics

#: A percentile is only reported when at least this many samples lie
#: beyond it; fewer and it is one outlier's value.
MIN_SAMPLES_BEYOND = 10
#: The gated tail: of a one-second slice of the open loop, the highest
#: percentile with ten samples beyond it.  The closed loops' slices
#: would support p99, but on the host this was defined on a slice's p99
#: swung by 30 % from run to run and its p90 by 10 %.
TAIL_PERCENTILE = 90.0
#: Candidates for "the highest percentile the sample supports".
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile `q` (0..100) of an ascending list."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    rank = math.ceil(q / 100.0 * len(sorted_values))
    return sorted_values[min(len(sorted_values), max(1, rank)) - 1]


def highest_supported_percentile(count: int,
                                 ceiling: float = 100.0) -> float:
    """The highest tail percentile <= `ceiling` with at least
    `MIN_SAMPLES_BEYOND` samples beyond it among `count` samples;
    50.0 when the sample supports no tail at all."""
    for q in TAIL_PERCENTILES:
        # 100 - 99.9 is not exactly 0.1 in binary; allow for it.
        beyond = count * (100.0 - q) / 100.0
        if q <= ceiling and beyond >= MIN_SAMPLES_BEYOND - 1e-9:
            return q
    return 50.0


def median(values: list[float]) -> float:
    return statistics.median(values)


def iqr_share(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median.

    The spread statistic used everywhere: over the slices of one run
    (how far they disagree with what is reported) and over the runs of
    one commit (the acceptance rule is written in it).
    """
    if len(values) < 2:
        return 0.0
    first, _second, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (third - first) / abs(middle) if middle else 0.0
