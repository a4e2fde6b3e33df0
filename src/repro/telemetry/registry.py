"""The instrument registry and the no-op null backend.

:class:`Telemetry` is the single recording path: components ask it for
named instruments (created lazily, shared by name) and open sim-time
spans through it.  One instance per testbed, clocked off the testbed's
:class:`~repro.sim.kernel.Simulator`, observes every tier — client
runtimes, the AP, the network — so cross-tier traces share one id space.

Un-instrumented runs pay (almost) nothing: every component defaults to
:data:`NULL`, a shared backend whose instruments and spans are inert
singletons — no samples retained, no spans recorded, no per-call
allocation beyond the call itself.
"""

from __future__ import annotations

import typing as _t

from repro.errors import TelemetryError
from repro.telemetry.instruments import (
    HISTOGRAM_BACKENDS,
    Counter,
    Gauge,
    Histogram,
    Instrument,
)
from repro.telemetry.sketch import DEFAULT_RELATIVE_ERROR
from repro.telemetry.spans import ParentLike, Span, SpanLog, SpanScope

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator
    from repro.telemetry.sampling import TailSampler

__all__ = ["Telemetry", "NullTelemetry", "NULL"]

#: ``state_dict()["kind"]`` → instrument class, for shard revival.
_KINDS: dict[str, type[Instrument]] = {
    "counter": Counter,
    "gauge": Gauge,
    "histogram": Histogram,
}


def _zero_clock() -> float:
    return 0.0


class Telemetry:
    """A registry of named instruments plus the span log.

    ``clock`` is a :class:`Simulator` (spans and snapshots read its
    ``now``) or any zero-argument callable; ``None`` pins the clock to
    zero, which suits pure unit tests of instruments.

    ``histogram_backend`` selects the default histogram storage:
    ``"exact"`` (raw samples, exact percentiles) or ``"sketch"``
    (fixed-memory :class:`~repro.telemetry.sketch.QuantileSketch` per
    label set, percentiles within ``sketch_relative_error`` of exact —
    the mergeable fleet-scale backend).  ``sampler`` attaches a
    :class:`~repro.telemetry.sampling.TailSampler` so only
    slow/erroring/1-in-N request traces are committed to the span log.
    """

    enabled = True

    def __init__(self, clock: "Simulator | _t.Callable[[], float] | None"
                 = None, max_spans: int = 100_000,
                 histogram_backend: str = "exact",
                 sketch_relative_error: float = DEFAULT_RELATIVE_ERROR,
                 sampler: "TailSampler | None" = None) -> None:
        if clock is None:
            self._clock: _t.Callable[[], float] = _zero_clock
        elif callable(clock):
            self._clock = clock
        else:
            self._clock = lambda: clock.now
        if histogram_backend not in HISTOGRAM_BACKENDS:
            raise TelemetryError(
                f"unknown histogram backend {histogram_backend!r} "
                f"(expected one of {'/'.join(HISTOGRAM_BACKENDS)})")
        self._instruments: dict[str, Instrument] = {}
        self.histogram_backend = histogram_backend
        self.sketch_relative_error = sketch_relative_error
        self.spans = SpanLog(self._clock, max_spans=max_spans,
                             sampler=sampler)

    # -- clock ----------------------------------------------------------
    def now(self) -> float:
        """The registry's (simulated) clock reading."""
        return self._clock()

    # -- instruments ----------------------------------------------------
    def _get(self, name: str, cls: type[Instrument],
             **kwargs: object) -> Instrument:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = self._instruments[name] = cls(name, **kwargs)
        elif not isinstance(instrument, cls):
            raise TelemetryError(
                f"instrument {name!r} is a {instrument.kind}, "
                f"requested {cls.kind}")
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return _t.cast(Counter, self._get(name, Counter, help=help))

    def gauge(self, name: str, help: str = "") -> Gauge:
        return _t.cast(Gauge, self._get(name, Gauge, help=help))

    def histogram(self, name: str, help: str = "",
                  buckets: _t.Sequence[float] | None = None,
                  backend: str | None = None) -> Histogram:
        """A histogram; ``backend`` overrides the registry default."""
        resolved = self.histogram_backend if backend is None else backend
        return _t.cast(Histogram, self._get(
            name, Histogram, help=help, buckets=buckets,
            backend=resolved,
            sketch_relative_error=self.sketch_relative_error))

    def instruments(self) -> list[Instrument]:
        """Every registered instrument, sorted by name."""
        return [self._instruments[name]
                for name in sorted(self._instruments)]

    def get(self, name: str) -> Instrument | None:
        return self._instruments.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    # -- merging --------------------------------------------------------
    def state_dict(self) -> dict[str, object]:
        """JSON-able snapshot of every instrument: the shard hand-off.

        Spans are *not* included — span/trace ids are per-registry
        sequences, so merging logs would collide ids; shards keep (and
        sample) their own span logs while metrics roll up.
        """
        return {"instruments": {
            name: self._instruments[name].state_dict()
            for name in sorted(self._instruments)}}

    def merge_state(self, state: _t.Mapping[str, object]) -> "Telemetry":
        """Fold one :meth:`state_dict` shard into this registry.

        Instruments are created on demand (with the shard's own
        configuration) and merged by name; a kind clash — the shard's
        ``requests`` is a counter, ours is a gauge — raises.  The fold
        is associative and commutative: any merge order over the same
        shards yields byte-identical exports (docs/telemetry.md).
        """
        for name, istate in sorted(_t.cast(
                dict, state.get("instruments", {})).items()):
            kind = _t.cast(str, istate["kind"])
            cls = _KINDS.get(kind)
            if cls is None:
                raise TelemetryError(
                    f"shard instrument {name!r} has unknown kind "
                    f"{kind!r}")
            mine = self._instruments.get(name)
            if mine is None:
                if cls is Histogram:
                    mine = Histogram(
                        name, help=_t.cast(str, istate["help"]),
                        buckets=_t.cast(list, istate["buckets"]),
                        backend=_t.cast(str, istate["backend"]),
                        sketch_relative_error=_t.cast(
                            float, istate["sketch_relative_error"]))
                else:
                    mine = cls(name, help=_t.cast(str, istate["help"]))
                self._instruments[name] = mine
            elif mine.kind != kind:
                raise TelemetryError(
                    f"cannot merge shard {kind} {name!r} into existing "
                    f"{mine.kind}")
            mine.merge_state(istate)
        return self

    def merge(self, other: "Telemetry") -> "Telemetry":
        """Fold another registry's instruments into this one.

        One code path with the cross-process fold: implemented as
        ``merge_state(other.state_dict())``.
        """
        return self.merge_state(other.state_dict())

    @classmethod
    def from_states(cls, states: _t.Iterable[_t.Mapping[str, object]],
                    ) -> "Telemetry":
        """A fresh registry folding the given shard snapshots."""
        merged = cls()
        for state in states:
            merged.merge_state(state)
        return merged

    # -- spans ----------------------------------------------------------
    def span(self, name: str, parent: ParentLike = None,
             **attrs: object) -> SpanScope:
        """Open a sim-time span (context manager); see :mod:`.spans`."""
        return self.spans.span(name, parent=parent, **attrs)

    def __repr__(self) -> str:
        return (f"<Telemetry instruments={len(self._instruments)} "
                f"spans={len(self.spans)}>")


class _NullInstrument(Counter, Gauge, Histogram):
    """One inert object quacking like every instrument type."""

    kind = "null"

    def __init__(self) -> None:  # pylint: disable=super-init-not-called
        self.name = "null"
        self.help = ""
        self.buckets = ()
        self.backend = "exact"

    # Recording is a no-op; reads report emptiness.
    def inc(self, amount: float = 1.0, **labels: object) -> None:
        pass

    def set(self, value: float, **labels: object) -> None:
        pass

    def add(self, delta: float, **labels: object) -> None:
        pass

    def observe(self, value: float, **labels: object) -> None:
        pass

    def value(self, **labels: object) -> float:
        return 0.0

    def total(self, **labels: object) -> float:
        return 0.0

    def samples(self, **labels: object) -> list[float]:
        return []

    def count(self, **labels: object) -> int:
        return 0

    def sum(self, **labels: object) -> float:
        return 0.0

    def mean(self, **labels: object) -> float:
        return 0.0

    def percentile(self, q: float, **labels: object) -> float:
        return 0.0

    def bucket_counts(self, **labels: object) -> list[int]:
        return []

    def labelsets(self) -> list:
        return []

    def summary(self, **labels: object) -> dict[str, object]:
        return {"count": 0.0}

    def state_dict(self) -> dict[str, object]:
        return {"kind": "null"}

    def merge_state(self, state: _t.Mapping[str, object]) -> None:
        pass

    def merge(self, other: Instrument) -> Instrument:
        return self


class _NullSpanScope:
    """A reusable no-op span context manager."""

    __slots__ = ("_span",)

    def __init__(self) -> None:
        # One shared inert span: never finished into any log.
        self._span = Span(name="null", span_id=0, trace_id=0,
                          parent_id=None, start_s=0.0, end_s=0.0)

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *_exc: object) -> None:
        pass


class NullTelemetry(Telemetry):
    """The no-op backend un-instrumented components default to.

    Hands out shared inert singletons, so hot paths stay allocation-free
    when nobody asked for telemetry.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(clock=None, max_spans=1)
        self._null_instrument = _NullInstrument()
        self._null_scope = _NullSpanScope()

    def counter(self, name: str, help: str = "") -> Counter:
        return self._null_instrument

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._null_instrument

    def histogram(self, name: str, help: str = "",
                  buckets: _t.Sequence[float] | None = None,
                  backend: str | None = None) -> Histogram:
        return self._null_instrument

    def span(self, name: str, parent: ParentLike = None,
             **attrs: object) -> SpanScope:
        return _t.cast(SpanScope, self._null_scope)

    def state_dict(self) -> dict[str, object]:
        return {"instruments": {}}

    def merge_state(self, state: _t.Mapping[str, object]) -> "Telemetry":
        raise TelemetryError(
            "the null backend cannot absorb shards; merge into a real "
            "Telemetry registry")

    def merge(self, other: "Telemetry") -> "Telemetry":
        raise TelemetryError(
            "the null backend cannot absorb shards; merge into a real "
            "Telemetry registry")

    def __repr__(self) -> str:
        return "<NullTelemetry>"


#: The process-wide null backend; safe to share (it records nothing).
NULL = NullTelemetry()
