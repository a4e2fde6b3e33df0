"""Metric instruments: counters, gauges, and fixed-bucket histograms.

Every instrument supports **labels** — `counter.inc(app="maps",
outcome="hit")` keeps one value per distinct label set — so the paper's
per-app/per-tier/per-outcome breakdowns fall out of one instrument
instead of a bag of ad-hoc name-mangled series.  Label sets are stored
as sorted tuples, which makes aggregation and export order
deterministic regardless of call order.

Histograms record latency-style samples against fixed bucket upper
bounds (sim-milliseconds by default) and come in two **backends**:

* ``backend="exact"`` retains the raw samples, so percentiles are exact
  (computed through :func:`percentile` below — the repository's one
  percentile implementation).
* ``backend="sketch"`` summarizes each label set in a fixed-memory
  :class:`~repro.telemetry.sketch.QuantileSketch` instead: percentiles
  carry a configurable relative-error bound while count/sum/min/max
  stay exact and memory stops growing with the sample count — the
  fleet-scale backend.

Every instrument is **mergeable**: :meth:`Instrument.merge` folds a
shard's state into this one, and :meth:`state_dict` /
:meth:`merge_state` round-trip the same fold through JSON for
cross-process hand-off (sweep workers, per-AP fleet shards).  The merge
is associative and commutative, and all float accumulation is kept as
flat per-shard term lists folded with :func:`math.fsum` at read time
(exact summation, rounded once), so merged exports are byte-identical
regardless of shard order — the contract docs/telemetry.md specifies
and ``tests/telemetry/test_merge.py`` property-checks.
"""

from __future__ import annotations

import json
import math
import typing as _t

from repro.errors import TelemetryError
from repro.telemetry.sketch import DEFAULT_RELATIVE_ERROR, QuantileSketch

__all__ = ["Counter", "Gauge", "Histogram", "Instrument", "LabelSet",
           "DEFAULT_LATENCY_BUCKETS_MS", "HISTOGRAM_BACKENDS", "labelset",
           "percentile"]

#: One label set: ``(("app", "maps"), ("outcome", "hit"))``.
LabelSet = tuple[tuple[str, str], ...]

#: Default histogram bucket upper bounds, in simulated milliseconds.
#: Spans the paper's operating range: ~1 ms WiFi hops, ~7 ms AP hits,
#: ~30 ms edge retrievals, and multi-hundred-ms origin misses.
DEFAULT_LATENCY_BUCKETS_MS: tuple[float, ...] = (
    0.5, 1.0, 2.0, 3.0, 5.0, 7.5, 10.0, 15.0, 20.0, 30.0, 50.0,
    75.0, 100.0, 150.0, 250.0, 500.0, 1000.0)

#: The selectable histogram storage strategies.
HISTOGRAM_BACKENDS = ("exact", "sketch")


def percentile(values: _t.Sequence[float], q: float,
               weights: _t.Sequence[float] | None = None) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100].

    Matches ``numpy.percentile``'s default behaviour but avoids pulling
    numpy into hot simulation paths.

    With ``weights`` (positive, one per value — how many requests each
    sample stands in for under tail-based trace sampling), samples are
    placed at positions ``t_i = (c_i - w_i) / (W - w_n)`` over their
    sorted order (``c_i`` = cumulative weight through sample i, ``W``
    total weight, ``w_n`` the last sorted sample's weight) and linearly
    interpolated between.  Unit weights reduce to exactly
    ``t_i = (i-1)/(n-1)`` — the unweighted formula — and that case is
    dispatched to the unweighted code path so results are
    bit-identical.
    """
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be within [0, 100], got {q}")
    if weights is not None:
        if len(weights) != len(values):
            raise ValueError(
                f"got {len(weights)} weights for {len(values)} values")
        if any(weight <= 0 for weight in weights):
            raise ValueError("weights must be positive")
        if all(weight == 1.0 for weight in weights):
            weights = None  # bit-identical to the unweighted path
    if weights is not None:
        return _weighted_percentile(values, q, weights)
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    fraction = rank - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


def _weighted_percentile(values: _t.Sequence[float], q: float,
                         weights: _t.Sequence[float]) -> float:
    pairs = sorted(zip(values, weights))
    if len(pairs) == 1:
        return pairs[0][0]
    total = math.fsum(weight for _value, weight in pairs)
    span = total - pairs[-1][1]
    if span <= 0.0:  # pragma: no cover - positive weights, n >= 2
        return pairs[-1][0]
    target = q / 100.0
    cumulative = 0.0
    previous_value, previous_t = pairs[0][0], 0.0
    for value, weight in pairs:
        cumulative += weight
        t = min((cumulative - weight) / span, 1.0)
        if t >= target:
            if t <= previous_t:
                return value
            fraction = (target - previous_t) / (t - previous_t)
            return previous_value * (1.0 - fraction) + value * fraction
        previous_value, previous_t = value, t
    return pairs[-1][0]


def labelset(labels: _t.Mapping[str, object]) -> LabelSet:
    """Normalize keyword labels into the canonical sorted-tuple form."""
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


def _encode_labelset(key: LabelSet) -> str:
    """Canonical JSON key for one label set (sorted, so unambiguous)."""
    return json.dumps([list(pair) for pair in key],
                      separators=(",", ":"))


def _decode_labelset(text: str) -> LabelSet:
    return tuple((str(key), str(value)) for key, value in json.loads(text))


class Instrument:
    """Common base: a named, labelled measurement device."""

    kind: str = "abstract"

    def __init__(self, name: str, help: str = "") -> None:
        if not name:
            raise TelemetryError("instrument name must be non-empty")
        self.name = name
        self.help = help

    def labelsets(self) -> list[LabelSet]:
        """Every label set this instrument has recorded, sorted."""
        raise NotImplementedError  # pragma: no cover - abstract

    def state_dict(self) -> dict[str, object]:
        """JSON-able full state: the cross-process shard hand-off."""
        raise NotImplementedError  # pragma: no cover - abstract

    def merge_state(self, state: _t.Mapping[str, object]) -> None:
        """Fold a :meth:`state_dict` shard into this instrument."""
        raise NotImplementedError  # pragma: no cover - abstract

    def merge(self, other: "Instrument") -> "Instrument":
        """Fold another instrument's state into this one; returns self.

        Implemented through the state round-trip so in-process and
        cross-process merges are one code path (and provably agree).
        """
        self._check_mergeable(other)
        self.merge_state(other.state_dict())
        return self

    def _check_mergeable(self, other: "Instrument") -> None:
        if type(other) is not type(self) or other.kind != self.kind:
            raise TelemetryError(
                f"cannot merge {other.kind} {other.name!r} into "
                f"{self.kind} {self.name!r}")
        if other.name != self.name:
            raise TelemetryError(
                f"cannot merge instrument {other.name!r} into "
                f"{self.name!r}: names differ")

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class Counter(Instrument):
    """A monotonically increasing count, one value per label set."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: dict[LabelSet, float] = {}
        #: Per-shard contributions folded in by merges; reads fsum the
        #: local value plus these terms, so the folded value does not
        #: depend on merge order.
        self._foreign: dict[LabelSet, list[float]] = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise TelemetryError(
                f"counter {self.name}: negative increment {amount!r}")
        key = () if not labels else labelset(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def _folded(self, key: LabelSet) -> float:
        local = self._values.get(key, 0.0)
        terms = self._foreign.get(key)
        if not terms:
            return local
        return math.fsum([local, *terms])

    def value(self, **labels: object) -> float:
        """The count recorded under exactly these labels."""
        key = () if not labels else labelset(labels)
        return self._folded(key)

    def total(self, **labels: object) -> float:
        """Sum across every label set matching the given subset."""
        match = () if not labels else labelset(labels)
        return math.fsum(self._folded(key) for key in self.labelsets()
                         if set(match) <= set(key))

    def labelsets(self) -> list[LabelSet]:
        return sorted(set(self._values) | set(self._foreign))

    def state_dict(self) -> dict[str, object]:
        return {
            "kind": self.kind,
            "help": self.help,
            "values": _canonical_terms(self._values, self._foreign),
        }

    def merge_state(self, state: _t.Mapping[str, object]) -> None:
        for encoded, terms in _t.cast(
                dict, state.get("values", {})).items():
            key = _decode_labelset(encoded)
            self._foreign.setdefault(key, []).extend(
                float(term) for term in terms)


def _canonical_terms(values: dict[LabelSet, float],
                     foreign: dict[LabelSet, list[float]],
                     ) -> dict[str, list[float]]:
    """Per-label term lists, canonicalized (sorted, exact zeros
    dropped) so the same term multiset always exports to the same
    bytes regardless of merge order; fsum is unaffected by both."""
    out: dict[str, list[float]] = {}
    for key in sorted(set(values) | set(foreign)):
        terms = [values[key]] if key in values else []
        terms.extend(foreign.get(key, ()))
        out[_encode_labelset(key)] = sorted(
            term for term in terms if term != 0.0)
    return out


class Gauge(Instrument):
    """A point-in-time value (bytes used, entries cached, ...).

    Merging gauges **sums** per-label values across shards — the fleet
    reading of "total bytes cached across all APs".  Give shards
    distinct labels (``ap=ap3``) when a sum would be meaningless.
    """

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: dict[LabelSet, float] = {}
        self._foreign: dict[LabelSet, list[float]] = {}

    def set(self, value: float, **labels: object) -> None:
        key = () if not labels else labelset(labels)
        self._values[key] = float(value)

    def add(self, delta: float, **labels: object) -> None:
        key = () if not labels else labelset(labels)
        self._values[key] = self._values.get(key, 0.0) + delta

    def value(self, **labels: object) -> float:
        key = () if not labels else labelset(labels)
        local = self._values.get(key, 0.0)
        terms = self._foreign.get(key)
        if not terms:
            return local
        return math.fsum([local, *terms])

    def labelsets(self) -> list[LabelSet]:
        return sorted(set(self._values) | set(self._foreign))

    def state_dict(self) -> dict[str, object]:
        return {
            "kind": self.kind,
            "help": self.help,
            "values": _canonical_terms(self._values, self._foreign),
        }

    def merge_state(self, state: _t.Mapping[str, object]) -> None:
        for encoded, terms in _t.cast(
                dict, state.get("values", {})).items():
            key = _decode_labelset(encoded)
            self._foreign.setdefault(key, []).extend(
                float(term) for term in terms)


class _HistogramState:
    """Per-label-set histogram storage."""

    __slots__ = ("bucket_counts", "samples", "sum", "sum_terms",
                 "sketch")

    def __init__(self, n_buckets: int,
                 sketch_relative_error: float | None = None) -> None:
        #: One count per configured bucket, plus a final +inf bucket.
        self.bucket_counts = [0] * (n_buckets + 1)
        self.samples: list[float] = []
        self.sum = 0.0
        #: Per-shard sum contributions from merges (fsum'd on read).
        self.sum_terms: list[float] = []
        #: The fixed-memory quantile summary (sketch backend only).
        self.sketch = (None if sketch_relative_error is None
                       else QuantileSketch(sketch_relative_error))

    def folded_sum(self) -> float:
        if self.sketch is not None:
            return self.sketch.sum
        if not self.sum_terms:
            return self.sum
        return math.fsum([self.sum, *self.sum_terms])

    def observations(self) -> int:
        if self.sketch is not None:
            return self.sketch.count
        return len(self.samples)


class Histogram(Instrument):
    """Fixed-bucket distribution with exact or sketched percentiles.

    ``buckets`` are inclusive upper bounds in ascending order; one
    implicit ``+inf`` bucket catches overflows.  With the default
    ``backend="exact"`` the raw samples are retained, so
    :meth:`percentile` is exact (linear interpolation over the sorted
    samples), matching the paper's reported p50/p95/p99; with
    ``backend="sketch"`` each label set keeps a fixed-memory
    :class:`~repro.telemetry.sketch.QuantileSketch` whose quantiles are
    within ``sketch_relative_error`` of exact.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: _t.Sequence[float] | None = None,
                 backend: str = "exact",
                 sketch_relative_error: float = DEFAULT_RELATIVE_ERROR,
                 ) -> None:
        super().__init__(name, help)
        bounds = tuple(buckets if buckets is not None
                       else DEFAULT_LATENCY_BUCKETS_MS)
        if not bounds:
            raise TelemetryError(f"histogram {name}: no buckets")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise TelemetryError(
                f"histogram {name}: buckets must be strictly increasing, "
                f"got {bounds}")
        if backend not in HISTOGRAM_BACKENDS:
            raise TelemetryError(
                f"histogram {name}: unknown backend {backend!r} "
                f"(expected one of {'/'.join(HISTOGRAM_BACKENDS)})")
        self.buckets = bounds
        self.backend = backend
        self.sketch_relative_error = sketch_relative_error
        self._states: dict[LabelSet, _HistogramState] = {}

    def _new_state(self) -> _HistogramState:
        return _HistogramState(
            len(self.buckets),
            sketch_relative_error=(self.sketch_relative_error
                                   if self.backend == "sketch" else None))

    # -- recording ------------------------------------------------------
    def observe(self, value: float, **labels: object) -> None:
        key = () if not labels else labelset(labels)
        state = self._states.get(key)
        if state is None:
            state = self._states[key] = self._new_state()
        state.bucket_counts[self._bucket_index(value)] += 1
        if state.sketch is not None:
            state.sketch.add(value)
            return
        state.sum += value
        state.samples.append(value)

    def _bucket_index(self, value: float) -> int:
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                return index
        return len(self.buckets)

    # -- aggregation ----------------------------------------------------
    def _matching(self, labels: _t.Mapping[str, object],
                  ) -> list[_HistogramState]:
        """States whose label set contains ``labels`` as a subset."""
        match = set(labelset(labels))
        return [state for key, state in sorted(self._states.items())
                if match <= set(key)]

    def _merged_sketch(self, states: _t.Sequence[_HistogramState],
                       ) -> QuantileSketch:
        merged = QuantileSketch(self.sketch_relative_error)
        for state in states:
            if state.sketch is not None:
                merged.merge(state.sketch)
        return merged

    def samples(self, **labels: object) -> list[float]:
        """Raw samples across every label set matching the subset.

        Empty under the sketch backend: no raw samples are retained.
        """
        collected: list[float] = []
        for state in self._matching(labels):
            collected.extend(state.samples)
        return collected

    def count(self, **labels: object) -> int:
        """Total observations across the matching label sets."""
        return sum(state.observations()
                   for state in self._matching(labels))

    def sum(self, **labels: object) -> float:
        return math.fsum(state.folded_sum()
                         for state in self._matching(labels))

    def mean(self, **labels: object) -> float:
        count = self.count(**labels)
        if not count:
            raise TelemetryError(f"histogram {self.name} is empty")
        return self.sum(**labels) / count

    def percentile(self, q: float, **labels: object) -> float:
        """Percentile over the matching states (exact or sketched)."""
        if self.backend == "sketch":
            states = self._matching(labels)
            if not any(state.observations() for state in states):
                raise TelemetryError(f"histogram {self.name} is empty")
            return self._merged_sketch(states).quantile(q)
        values = self.samples(**labels)
        if not values:
            raise TelemetryError(f"histogram {self.name} is empty")
        return percentile(values, q)

    def bucket_counts(self, **labels: object) -> list[int]:
        """Per-bucket counts (last entry is the +inf overflow bucket)."""
        totals = [0] * (len(self.buckets) + 1)
        for state in self._matching(labels):
            for index, count in enumerate(state.bucket_counts):
                totals[index] += count
        return totals

    def labelsets(self) -> list[LabelSet]:
        return sorted(self._states)

    def cumulative_rows(self, key: LabelSet,
                        ) -> tuple[list[tuple[float, int]], int, float, str]:
        """Prometheus-style cumulative buckets for one exact label set.

        Returns ``(rows, total, sum, backend)`` where ``rows`` is the
        ascending ``(upper_bound, cumulative_count)`` list *excluding*
        the ``+inf`` bucket (``total`` is its value), ``sum`` is the
        folded sample sum and ``backend`` the per-state fidelity tag.
        Exact states expose the configured bounds; sketch states
        expose their gamma log-buckets (exact counts, approximate
        positions within the sketch's relative-error bound).  This is
        the accessor the ``/metrics`` exposition renders from
        (:mod:`repro.telemetry.exposition`).
        """
        state = self._states.get(key)
        if state is None:
            raise TelemetryError(
                f"histogram {self.name}: unknown label set {key!r}")
        if state.sketch is not None:
            rows = state.sketch.cumulative_buckets()
            return rows, state.sketch.count, state.sketch.sum, "sketch"
        rows = []
        cumulative = 0
        for bound, count in zip(self.buckets, state.bucket_counts):
            cumulative += count
            rows.append((bound, cumulative))
        total = cumulative + state.bucket_counts[-1]
        return rows, total, state.folded_sum(), "exact"

    def summary(self, **labels: object) -> dict[str, object]:
        """count/mean/p50/p95/p99/max over the matching states.

        The ``backend`` key states how the percentiles were computed —
        ``exact`` (raw samples) or ``sketch`` (relative-error-bounded)
        — so exported series of different fidelities are never compared
        as identical stats (``diff_runs`` keys on it).
        """
        if self.backend == "sketch":
            states = self._matching(labels)
            sketch = self._merged_sketch(states)
            if not sketch.count:
                return {"count": 0.0, "backend": "sketch"}
            return {
                "count": float(sketch.count),
                "mean": sketch.sum / sketch.count,
                "p50": sketch.quantile(50.0),
                "p95": sketch.quantile(95.0),
                "p99": sketch.quantile(99.0),
                "max": sketch.max,
                "backend": "sketch",
            }
        values = self.samples(**labels)
        if not values:
            return {"count": 0.0, "backend": "exact"}
        return {
            "count": float(len(values)),
            "mean": math.fsum(values) / len(values),
            "p50": percentile(values, 50.0),
            "p95": percentile(values, 95.0),
            "p99": percentile(values, 99.0),
            "max": max(values),
            "backend": "exact",
        }

    # -- merging --------------------------------------------------------
    def _check_state_compat(self, state: _t.Mapping[str, object]) -> None:
        if tuple(_t.cast(list, state["buckets"])) != self.buckets:
            raise TelemetryError(
                f"histogram {self.name}: cannot merge shards with "
                f"different buckets")
        if state["backend"] != self.backend:
            raise TelemetryError(
                f"histogram {self.name}: cannot merge {state['backend']}"
                f"-backend shard into {self.backend} backend")
        if self.backend == "sketch" and \
                state["sketch_relative_error"] != self.sketch_relative_error:
            raise TelemetryError(
                f"histogram {self.name}: cannot merge shards with "
                f"different sketch error bounds")

    def state_dict(self) -> dict[str, object]:
        states: dict[str, object] = {}
        for key in self.labelsets():
            state = self._states[key]
            entry: dict[str, object] = {
                "bucket_counts": list(state.bucket_counts),
            }
            if state.sketch is not None:
                entry["sketch"] = state.sketch.state_dict()
            else:
                entry["samples"] = sorted(state.samples)
                entry["sum_terms"] = sorted(
                    term for term in [state.sum, *state.sum_terms]
                    if term != 0.0)
            states[_encode_labelset(key)] = entry
        return {
            "kind": self.kind,
            "help": self.help,
            "buckets": list(self.buckets),
            "backend": self.backend,
            "sketch_relative_error": self.sketch_relative_error,
            "states": states,
        }

    def merge_state(self, state: _t.Mapping[str, object]) -> None:
        self._check_state_compat(state)
        for encoded, entry in _t.cast(
                dict, state.get("states", {})).items():
            key = _decode_labelset(encoded)
            mine = self._states.get(key)
            if mine is None:
                mine = self._states[key] = self._new_state()
            for index, count in enumerate(entry["bucket_counts"]):
                mine.bucket_counts[index] += count
            if mine.sketch is not None:
                mine.sketch.merge(QuantileSketch.from_state(
                    entry["sketch"]))
            else:
                # Canonical multiset order: sorting makes the merged
                # sample list — hence every export byte — independent
                # of the order shards were folded in.
                mine.samples = sorted(
                    mine.samples
                    + [float(sample) for sample in entry["samples"]])
                mine.sum_terms.extend(
                    float(term) for term in entry["sum_terms"])
