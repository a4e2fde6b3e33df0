"""Metric instruments: counters, gauges, and sketch histograms.

Every instrument supports **labels** — `counter.inc(app="maps",
outcome="hit")` keeps one value per distinct label set — so the paper's
per-app/per-tier/per-outcome breakdowns fall out of one instrument
instead of a bag of ad-hoc name-mangled series.  Label sets are stored
as sorted tuples, which makes aggregation and export order
deterministic regardless of call order.

Histograms summarize each label set in a fixed-memory
:class:`~repro.telemetry.sketch.QuantileSketch`: count/sum/min/max are
exact, percentiles are within the sketch's relative-error bound of
:func:`percentile` below (the repository's one exact percentile
implementation, used over raw sample lists), and memory stops growing
with the sample count.

Every instrument is **mergeable**: :meth:`Instrument.merge` folds a
shard's state into this one, and :meth:`state_dict` /
:meth:`merge_state` round-trip the same fold through JSON for
cross-process hand-off (sweep workers).  The merge
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
from repro.telemetry.sketch import QuantileSketch

__all__ = ["Counter", "Gauge", "Histogram", "Instrument", "LabelSet",
           "labelset", "percentile"]

#: One label set: ``(("app", "maps"), ("outcome", "hit"))``.
LabelSet = tuple[tuple[str, str], ...]


def percentile(values: _t.Sequence[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100].

    Matches ``numpy.percentile``'s default behaviour but avoids pulling
    numpy into hot simulation paths.
    """
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be within [0, 100], got {q}")
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

    Merging gauges **sums** per-label values across shards — the swept
    reading of "total bytes cached across all cells".  Give shards
    distinct labels when a sum would be meaningless.
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


class Histogram(Instrument):
    """A latency-style distribution: one quantile sketch per label set.

    Each label set keeps a fixed-memory
    :class:`~repro.telemetry.sketch.QuantileSketch` at
    :data:`~repro.telemetry.sketch.DEFAULT_RELATIVE_ERROR`: count, sum,
    min and max are exact, p50/p95/p99 are within that relative error
    of exact, and memory grows with the samples' dynamic range, never
    with their number.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._sketches: dict[LabelSet, QuantileSketch] = {}

    def _sketch_for(self, key: LabelSet) -> QuantileSketch:
        sketch = self._sketches.get(key)
        if sketch is None:
            sketch = self._sketches[key] = QuantileSketch()
        return sketch

    # -- recording ------------------------------------------------------
    def observe(self, value: float, **labels: object) -> None:
        self._sketch_for(() if not labels else labelset(labels)).add(value)

    def merge_sketch(self, sketch: QuantileSketch,
                     **labels: object) -> None:
        """Fold a whole sketch into one label set (a scrape rebuild)."""
        self._sketch_for(() if not labels else labelset(labels)).merge(sketch)

    # -- aggregation ----------------------------------------------------
    def sketch(self, **labels: object) -> QuantileSketch:
        """A fresh sketch merging every label set matching the subset."""
        match = set(() if not labels else labelset(labels))
        merged = QuantileSketch()
        for key, sketch in sorted(self._sketches.items()):
            if match <= set(key):
                merged.merge(sketch)
        return merged

    def series(self) -> list[tuple[LabelSet, QuantileSketch]]:
        """Every label set with its own sketch, sorted by label set."""
        return sorted(self._sketches.items())

    def count(self, **labels: object) -> int:
        """Total observations across the matching label sets."""
        return self.sketch(**labels).count

    def sum(self, **labels: object) -> float:
        return self.sketch(**labels).sum

    def mean(self, **labels: object) -> float:
        sketch = self.sketch(**labels)
        if not sketch.count:
            raise TelemetryError(f"histogram {self.name} is empty")
        return sketch.sum / sketch.count

    def percentile(self, q: float, **labels: object) -> float:
        """Percentile over the matching label sets, within the sketch's
        relative error (q = 0 and q = 100 are the exact min and max)."""
        sketch = self.sketch(**labels)
        if not sketch.count:
            raise TelemetryError(f"histogram {self.name} is empty")
        return sketch.quantile(q)

    def labelsets(self) -> list[LabelSet]:
        return sorted(self._sketches)

    def summary(self, **labels: object) -> dict[str, object]:
        """count/mean/p50/p95/p99/max over the matching label sets."""
        sketch = self.sketch(**labels)
        if not sketch.count:
            return {"count": 0.0}
        return {
            "count": float(sketch.count),
            "mean": sketch.sum / sketch.count,
            "p50": sketch.quantile(50.0),
            "p95": sketch.quantile(95.0),
            "p99": sketch.quantile(99.0),
            "max": sketch.max,
        }

    # -- merging --------------------------------------------------------
    def state_dict(self) -> dict[str, object]:
        return {
            "kind": self.kind,
            "help": self.help,
            "states": {_encode_labelset(key): sketch.state_dict()
                       for key, sketch in self.series()},
        }

    def merge_state(self, state: _t.Mapping[str, object]) -> None:
        for encoded, entry in _t.cast(
                dict, state.get("states", {})).items():
            self._sketch_for(_decode_labelset(encoded)).merge(
                QuantileSketch.from_state(entry))
