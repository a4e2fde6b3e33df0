"""A deterministic log-bucketed quantile sketch (DDSketch-style).

:class:`QuantileSketch` summarizes a stream of non-negative samples in
**fixed memory** while answering quantile queries with a configurable
*relative*-error bound: for any q, the returned value ``v̂`` satisfies
``|v̂ - v| <= relative_error * v`` where ``v`` is the true sample at
that rank.  The trick is logarithmic bucketing — sample ``x`` lands in
bucket ``ceil(log_gamma(x))`` with ``gamma = (1 + α) / (1 - α)`` — so
every bucket's midpoint is within ``α`` (relative) of everything the
bucket holds, and a quantile query only has to walk bucket counts to
the requested rank.

Design properties the shard merge relies on (docs/telemetry.md):

* **Fixed memory** — bucket count grows with the *dynamic range* of the
  data (log of max/min), never with the sample count.  Sub-millisecond
  to multi-minute latencies fit in a few hundred buckets at α = 1%.
* **Exact count/sum/min/max** — only the quantiles are approximate.
* **Mergeable** — :meth:`merge` adds bucket counts; merging shard
  sketches in any order yields the same bucket multiset, and
  :meth:`state_dict` renders it sorted, so shard-merged exports are
  byte-identical regardless of merge order.  Sums are folded with
  :func:`math.fsum` over the flat list of per-shard contributions
  (``fsum`` computes the exact sum and rounds once, so it is
  independent of term order).
* **Deterministic** — no randomness anywhere; two same-seed runs (or
  any two merge orders over the same shards) produce identical state.
"""

from __future__ import annotations

import math
import typing as _t

from repro.errors import TelemetryError

__all__ = ["QuantileSketch", "DEFAULT_RELATIVE_ERROR"]

#: Default quantile relative-error bound (1%): p99 = 100 ms is reported
#: within [99 ms, 101 ms].
DEFAULT_RELATIVE_ERROR = 0.01

#: Samples below this are indistinguishable from zero (they share one
#: exact "zero bucket"); sim latencies are far above it.
_MIN_TRACKABLE = 1e-9


class QuantileSketch:
    """Fixed-memory quantile summary with a relative-error guarantee."""

    __slots__ = ("relative_error", "_gamma", "_log_gamma", "_buckets",
                 "_zero_count", "_count", "_min", "_max", "_sum_terms",
                 "_sum_local")

    def __init__(self, relative_error: float = DEFAULT_RELATIVE_ERROR,
                 ) -> None:
        if not 0.0 < relative_error < 1.0:
            raise TelemetryError(
                f"sketch relative_error must be in (0, 1), "
                f"got {relative_error!r}")
        self.relative_error = relative_error
        self._gamma = (1.0 + relative_error) / (1.0 - relative_error)
        self._log_gamma = math.log(self._gamma)
        #: Bucket index -> sample count; index i covers
        #: (gamma^(i-1), gamma^i].
        self._buckets: dict[int, int] = {}
        self._zero_count = 0
        self._count = 0
        self._min = math.inf
        self._max = -math.inf
        #: Locally accumulated sum plus one term per merged-in shard;
        #: reads fold the flat term list with fsum (order-independent).
        self._sum_local = 0.0
        self._sum_terms: list[float] = []

    # -- recording ------------------------------------------------------
    def add(self, value: float) -> None:
        """Record one sample (non-negative; latencies in sim-ms)."""
        if value < 0.0:
            raise TelemetryError(
                f"sketch samples must be non-negative, got {value!r}")
        if value < _MIN_TRACKABLE:
            self._zero_count += 1
        else:
            index = math.ceil(math.log(value) / self._log_gamma)
            self._buckets[index] = self._buckets.get(index, 0) + 1
        self._count += 1
        self._sum_local += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    # -- exact aggregates -----------------------------------------------
    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        """Exact sum, order-independent across merges (fsum of terms)."""
        if not self._sum_terms:
            return self._sum_local
        return math.fsum([self._sum_local, *self._sum_terms])

    @property
    def min(self) -> float:
        if not self._count:
            raise TelemetryError("sketch is empty")
        return self._min

    @property
    def max(self) -> float:
        if not self._count:
            raise TelemetryError("sketch is empty")
        return self._max

    def __len__(self) -> int:
        return self._count

    @property
    def bucket_count(self) -> int:
        """Distinct log-buckets in use (the memory footprint)."""
        return len(self._buckets) + (1 if self._zero_count else 0)

    # -- quantiles ------------------------------------------------------
    def quantile(self, q: float) -> float:
        """The q-th percentile (q in [0, 100]), within the error bound.

        Uses the nearest-rank convention over bucket counts; the
        returned bucket midpoint ``2·γ^i / (γ + 1)`` is within
        ``relative_error`` of every sample the bucket holds, and q = 0 /
        q = 100 return the exact min/max.
        """
        if not self._count:
            raise TelemetryError("quantile of an empty sketch")
        if not 0.0 <= q <= 100.0:
            raise TelemetryError(f"q must be within [0, 100], got {q}")
        if q == 0.0:
            return self._min
        if q == 100.0:
            return self._max
        rank = max(1, math.ceil(q / 100.0 * self._count))
        if rank <= self._zero_count:
            return 0.0
        remaining = rank - self._zero_count
        for index in sorted(self._buckets):
            remaining -= self._buckets[index]
            if remaining <= 0:
                midpoint = (2.0 * self._gamma ** index
                            / (self._gamma + 1.0))
                # The estimate never escapes the observed range.
                return min(max(midpoint, self._min), self._max)
        return self._max  # pragma: no cover - rank <= count always hits

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """Ascending ``(upper_bound, cumulative_count)`` rows.

        The exposition-format view of the sketch: each log-bucket i
        becomes a cumulative bucket with upper bound ``gamma^i`` (its
        exact inclusive upper edge); the zero bucket, when populated,
        leads with upper bound ``_MIN_TRACKABLE``.  Counts are exact —
        only the bound placement carries the sketch's relative error.
        """
        rows: list[tuple[float, int]] = []
        cumulative = 0
        if self._zero_count:
            cumulative = self._zero_count
            rows.append((_MIN_TRACKABLE, cumulative))
        for index in sorted(self._buckets):
            cumulative += self._buckets[index]
            rows.append((self._gamma ** index, cumulative))
        return rows

    @classmethod
    def from_cumulative_buckets(cls, rows: _t.Sequence[tuple[float, int]],
                                count: int, total: float,
                                ) -> "QuantileSketch":
        """The inverse of :meth:`cumulative_buckets` (a scrape rebuild).

        Each upper bound ``gamma^i`` maps back to bucket ``i``, so
        count, sum and every bucket count are the source's; min and max
        become the outer bucket edges, the tightest bounds the rows
        carry.  Runs in time proportional to the row count.
        """
        sketch = cls()
        previous = 0
        for bound, cumulative in rows:
            held = cumulative - previous
            if held < 0:
                raise TelemetryError(
                    f"cumulative bucket counts decrease at le={bound!r}")
            previous = cumulative
            if not held:
                continue
            if bound <= _MIN_TRACKABLE:
                sketch._zero_count += held
                continue
            index = round(math.log(bound) / sketch._log_gamma)
            sketch._buckets[index] = sketch._buckets.get(index, 0) + held
        if previous != count:
            raise TelemetryError(
                f"bucket rows hold {previous} observations, "
                f"count says {count}")
        sketch._count = count
        sketch._sum_local = total
        if sketch._zero_count:
            sketch._min = sketch._max = 0.0
        if sketch._buckets:
            if not sketch._zero_count:
                sketch._min = sketch._gamma ** (min(sketch._buckets) - 1)
            sketch._max = sketch._gamma ** max(sketch._buckets)
        return sketch

    # -- merging --------------------------------------------------------
    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold another sketch into this one (in place); returns self.

        Bucket counts are integers, so the merged multiset — and hence
        every quantile — is independent of merge order; sums are kept as
        a flat term list folded with fsum on read, so the exported sum
        is byte-identical regardless of shard order too.
        """
        if other.relative_error != self.relative_error:
            raise TelemetryError(
                f"cannot merge sketches with different error bounds "
                f"({self.relative_error} vs {other.relative_error})")
        for index, count in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + count
        self._zero_count += other._zero_count
        self._count += other._count
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        if other._sum_local or not other._sum_terms:
            self._sum_terms.append(other._sum_local)
        self._sum_terms.extend(other._sum_terms)
        return self

    # -- serialization --------------------------------------------------
    def state_dict(self) -> dict[str, object]:
        """JSON-able full state; the shard hand-off format.

        The sum-term list is canonicalized (sorted, exact zeros
        dropped) so the same term multiset always renders to the same
        bytes regardless of the order shards were merged in.
        """
        return {
            "relative_error": self.relative_error,
            "count": self._count,
            "zero_count": self._zero_count,
            "sum_terms": sorted(
                term for term in [self._sum_local, *self._sum_terms]
                if term != 0.0),
            "min": self._min if self._count else None,
            "max": self._max if self._count else None,
            "buckets": {str(index): self._buckets[index]
                        for index in sorted(self._buckets)},
        }

    @classmethod
    def from_state(cls, state: _t.Mapping[str, object],
                   ) -> "QuantileSketch":
        sketch = cls(relative_error=_t.cast(
            float, state["relative_error"]))
        sketch._count = int(_t.cast(int, state["count"]))
        sketch._zero_count = int(_t.cast(int, state["zero_count"]))
        terms = [float(term) for term in
                 _t.cast(list, state["sum_terms"])]
        sketch._sum_local = terms[0] if terms else 0.0
        sketch._sum_terms = terms[1:]
        if state["min"] is not None:
            sketch._min = float(_t.cast(float, state["min"]))
        if state["max"] is not None:
            sketch._max = float(_t.cast(float, state["max"]))
        sketch._buckets = {
            int(index): int(count)
            for index, count in _t.cast(
                dict, state["buckets"]).items()}
        return sketch

    def __repr__(self) -> str:
        return (f"<QuantileSketch n={self._count} "
                f"buckets={self.bucket_count} "
                f"alpha={self.relative_error}>")
