"""Trace-correlated structured logging (JSONL records).

:class:`StructuredLog` is the live stack's event log: a bounded ring of
JSON-able records, each stamped with the engine clock and — when the
caller passes the active :class:`~repro.telemetry.spans.Span` — the
``x-ape-trace`` trace id (:func:`~repro.telemetry.spans.
format_trace_parent` spelling, ``trace.span``).  That correlation is
the point: a slow trace surfaced by ``/debug/traces`` greps straight to
its log lines::

    python -m repro.cli live --serve --logs live.jsonl ...
    grep '"trace": "17\\.' live.jsonl

Records are plain dicts rendered with sorted keys and compact
separators (the same canonical JSON the telemetry exports use), so log
files diff cleanly.  The clock is injected — ``engine.now`` for live
runs, ``Simulator.now`` for tests — keeping this module free of host
clock reads like the rest of the telemetry layer (DET002).
"""

from __future__ import annotations

import collections
import json
import typing as _t

from repro.errors import TelemetryError
from repro.telemetry.spans import Span, format_trace_parent

__all__ = ["StructuredLog", "LOG_LEVELS"]

#: Record severities, in increasing order.
LOG_LEVELS = ("debug", "info", "warning", "error")


class StructuredLog:
    """A bounded, deterministic ring of structured log records.

    ``clock`` is any zero-argument callable returning engine seconds
    (``None`` pins records to t=0, for unit tests); ``max_records``
    bounds memory the same way :class:`SpanLog`'s ring does — overflow
    drops the oldest record and bumps :attr:`dropped`.
    """

    def __init__(self, clock: _t.Callable[[], float] | None = None,
                 max_records: int = 10_000) -> None:
        if max_records < 1:
            raise TelemetryError(
                f"max_records must be >= 1, got {max_records}")
        self._clock = clock if clock is not None else (lambda: 0.0)
        self.max_records = max_records
        self._records: collections.deque[dict[str, object]] = \
            collections.deque(maxlen=max_records)
        self.dropped = 0

    def log(self, event: str, *, span: Span | None = None,
            level: str = "info", **fields: object) -> dict[str, object]:
        """Append one record; returns it (already JSON-able).

        ``span`` threads the trace correlation: the record carries the
        wire-format ``trace`` id (``x-ape-trace`` spelling) plus the
        emitting span's own id.
        """
        if level not in LOG_LEVELS:
            raise TelemetryError(
                f"unknown log level {level!r} "
                f"(expected one of {'/'.join(LOG_LEVELS)})")
        record: dict[str, object] = {
            "t_ms": self._clock() * 1e3,
            "level": level,
            "event": event,
        }
        if span is not None:
            record["trace"] = format_trace_parent(span)
            record["span"] = span.span_id
        for key in sorted(fields):
            if key in record:
                raise TelemetryError(
                    f"log field {key!r} collides with a record key")
            record[key] = fields[key]
        if len(self._records) == self.max_records:
            self.dropped += 1
        self._records.append(record)
        return record

    # -- inspection -----------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> _t.Iterator[dict[str, object]]:
        return iter(self._records)

    def tail(self, n: int) -> list[dict[str, object]]:
        """The most recent ``n`` records, oldest first."""
        if n <= 0:
            return []
        return list(self._records)[-n:]

    def records(self, event: str | None = None,
                trace: str | None = None) -> list[dict[str, object]]:
        """Records in append order, optionally filtered."""
        return [record for record in self._records
                if (event is None or record.get("event") == event)
                and (trace is None or record.get("trace") == trace)]

    def to_jsonl(self) -> str:
        """Every record as canonical JSONL (sorted keys, compact)."""
        return "".join(
            json.dumps(record, sort_keys=True, separators=(",", ":"))
            + "\n"
            for record in self._records)

    def write_jsonl(self, path: str) -> int:
        """Write :meth:`to_jsonl` to ``path``; returns record count."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())
        return len(self._records)

    def clear(self) -> None:
        self._records.clear()
        self.dropped = 0

    def __repr__(self) -> str:
        return (f"<StructuredLog records={len(self._records)} "
                f"dropped={self.dropped}>")
