"""Sim-time spans: the per-request trace tree.

A span measures one stage of the DNS→AP→edge request path on the
**simulated** clock (``Simulator.now``), never the wall clock, so traces
are byte-identical across runs with the same seed.  Spans nest — one
client request yields a tree like::

    request
    ├── dns_piggyback
    └── ap_delegated          (client side)
        └── ap.request        (AP side, linked via the x-ape-trace header)
            ├── ap.edge_fetch
            └── ap.pacm_admit

Because simulated processes interleave at every ``yield``, an ambient
"current span" stack would mis-parent spans from concurrent requests.
Parents are therefore **explicit**: pass the parent span (or a
``(trace_id, span_id)`` pair recovered from a protocol header) to
:meth:`SpanLog.span`.  The context manager reads the clock on entry and
exit and records the finished span::

    with log.span("request", app="maps") as req:
        with log.span("dns_piggyback", parent=req):
            ...
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
import typing as _t

from repro.errors import TelemetryError

__all__ = ["Span", "SpanLog", "SpanScope", "format_trace_parent",
           "parse_trace_parent"]

#: Anything accepted as a span parent: a live span, or the
#: ``(trace_id, span_id)`` context recovered from a wire header.
ParentLike = _t.Union["Span", tuple[int, int], None]


def format_trace_parent(span: "Span") -> str:
    """Encode a span's context for a protocol header (``trace.span``)."""
    return f"{span.trace_id}.{span.span_id}"


def parse_trace_parent(value: str | None) -> tuple[int, int] | None:
    """Decode a :func:`format_trace_parent` header; None if absent/bad."""
    if not value:
        return None
    trace, _, span = value.partition(".")
    try:
        return (int(trace), int(span))
    except ValueError:
        return None


@dataclasses.dataclass
class Span:
    """One timed stage of a request, anchored in a trace tree."""

    name: str
    span_id: int
    trace_id: int
    parent_id: int | None
    start_s: float
    end_s: float | None = None
    status: str = "ok"
    attrs: dict[str, object] = dataclasses.field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        if self.end_s is None:
            raise TelemetryError(f"span {self.name!r} has not finished")
        return self.end_s - self.start_s

    @property
    def finished(self) -> bool:
        return self.end_s is not None

    def set_attr(self, key: str, value: object) -> None:
        """Attach/replace one attribute on a live span."""
        self.attrs[key] = value

    @property
    def context(self) -> tuple[int, int]:
        """The ``(trace_id, span_id)`` pair used for wire propagation."""
        return (self.trace_id, self.span_id)

    def render(self) -> str:
        extras = " ".join(f"{key}={value}"
                          for key, value in sorted(self.attrs.items()))
        timing = (f"{self.start_s * 1e3:.3f}ms"
                  f"+{self.duration_s * 1e3:.3f}ms"
                  if self.finished else f"{self.start_s * 1e3:.3f}ms+...")
        body = f"{self.name} [{timing}] {extras}".rstrip()
        return f"#{self.span_id}<-{self.parent_id} {body} ({self.status})"


class SpanScope:
    """Context manager tracking one span from entry to exit."""

    def __init__(self, log: "SpanLog", name: str, parent: ParentLike,
                 attrs: dict[str, object]) -> None:
        self._log = log
        self._name = name
        self._parent = parent
        self._attrs = attrs
        self._span: Span | None = None

    def __enter__(self) -> Span:
        self._span = self._log._start(self._name, self._parent, self._attrs)
        return self._span

    def __exit__(self, exc_type: type | None, exc: BaseException | None,
                 _tb: object) -> None:
        span = self._span
        if span is None:  # pragma: no cover - enter always ran
            return
        if exc_type is not None:
            span.status = f"error:{exc_type.__name__}"
        self._log._finish(span)


class SpanLog:
    """A bounded, deterministic record of finished spans.

    Span ids are sequential (one shared counter), so exports are
    reproducible.  Spans are stored in *completion* order — children
    before parents — inside a ring of ``max_spans``; overflow drops the
    oldest finished span and bumps :attr:`dropped`.
    """

    def __init__(self, clock: _t.Callable[[], float],
                 max_spans: int = 100_000) -> None:
        if max_spans < 1:
            raise TelemetryError(
                f"max_spans must be >= 1, got {max_spans}")
        self._clock = clock
        self.max_spans = max_spans
        self._finished: collections.deque[Span] = collections.deque(
            maxlen=max_spans)
        self._ids = itertools.count(1)
        self.dropped = 0
        self.started = 0

    # -- recording ------------------------------------------------------
    def span(self, name: str, parent: ParentLike = None,
             **attrs: object) -> SpanScope:
        """A context manager opening a span at ``sim.now`` on entry."""
        return SpanScope(self, name, parent, dict(attrs))

    def _start(self, name: str, parent: ParentLike,
               attrs: dict[str, object]) -> Span:
        span_id = next(self._ids)
        if parent is None:
            trace_id, parent_id = span_id, None
        elif isinstance(parent, Span):
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:
            trace_id, parent_id = parent
        self.started += 1
        return Span(name=name, span_id=span_id, trace_id=trace_id,
                    parent_id=parent_id, start_s=self._clock(),
                    attrs=attrs)

    def _finish(self, span: Span) -> None:
        span.end_s = self._clock()
        self._record(span)

    def _record(self, span: Span) -> None:
        if len(self._finished) == self.max_spans:
            self.dropped += 1
        self._finished.append(span)

    # -- inspection -----------------------------------------------------
    def __len__(self) -> int:
        return len(self._finished)

    def __iter__(self) -> _t.Iterator[Span]:
        return iter(self._finished)

    def finished(self, name: str | None = None) -> list[Span]:
        """Finished spans (completion order), optionally by name."""
        return [span for span in self._finished
                if name is None or span.name == name]

    def traces(self) -> dict[int, list[Span]]:
        """Finished spans grouped by trace, sorted by span id."""
        grouped: dict[int, list[Span]] = {}
        for span in self._finished:
            grouped.setdefault(span.trace_id, []).append(span)
        return {trace_id: sorted(spans, key=lambda span: span.span_id)
                for trace_id, spans in sorted(grouped.items())}

    def children_of(self, parent: Span) -> list[Span]:
        return [span for span in self._finished
                if span.parent_id == parent.span_id]

    def render_trace(self, trace_id: int) -> str:
        """ASCII tree of one trace, children indented under parents."""
        spans = self.traces().get(trace_id, [])
        by_parent: dict[int | None, list[Span]] = {}
        for span in spans:
            by_parent.setdefault(span.parent_id, []).append(span)
        lines: list[str] = []

        def walk(parent_id: int | None, depth: int) -> None:
            for span in by_parent.get(parent_id, []):
                lines.append("  " * depth + span.render())
                walk(span.span_id, depth + 1)

        walk(None, 0)
        # Orphans whose parent lives on another component's records
        # (cross-component links) or fell out of the ring.
        known = {span.span_id for span in spans}
        for span in spans:
            if span.parent_id is not None and span.parent_id not in known:
                lines.append(span.render() + "  (parent elsewhere)")
                walk(span.span_id, 1)
        return "\n".join(lines)
