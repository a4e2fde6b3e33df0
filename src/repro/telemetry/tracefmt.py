"""Chrome trace-event export: view span trees in Perfetto.

Converts exported span records into the Trace Event Format JSON that
``chrome://tracing`` and https://ui.perfetto.dev consume: every finished
span becomes one ``"X"`` (complete) event with microsecond ``ts``/
``dur``, grouped onto one track (``tid``) per trace so each request
reads as a waterfall.  Output is deterministic — events are sorted by
(trace, span), JSON is emitted with sorted keys and fixed separators —
so the golden-file test and the check.sh smoke can byte-compare dumps.
"""

from __future__ import annotations

import json
import typing as _t

from repro.telemetry.analysis import SpanRecord

__all__ = ["chrome_trace_events", "chrome_trace_json",
           "write_chrome_trace"]

#: Every span renders into the one simulated process.
_PID = 1


def chrome_trace_events(records: _t.Sequence[SpanRecord],
                        ) -> list[dict[str, object]]:
    """Trace Event Format event dicts for the given span records.

    One metadata pair names the process and each per-trace track, then
    one ``"X"`` complete event per span (``ts``/``dur`` in integer
    microseconds of simulated time).  Span/parent ids and attributes
    ride along in ``args`` so Perfetto's selection panel shows them.
    """
    events: list[dict[str, object]] = [{
        "ph": "M", "pid": _PID, "tid": 0, "name": "process_name",
        "args": {"name": "repro simulated testbed"},
    }]
    ordered = sorted(records,
                     key=lambda record: (record.trace, record.span))
    named: set[int] = set()
    for record in ordered:
        if record.trace not in named:
            named.add(record.trace)
            label = f"trace {record.trace}"
            if record.parent is None and "app" in record.attrs:
                label += f" ({record.attrs['app']})"
            events.append({
                "ph": "M", "pid": _PID, "tid": record.trace,
                "name": "thread_name", "args": {"name": label},
            })
        args: dict[str, object] = {
            "span": record.span,
            "parent": record.parent,
            "status": record.status,
        }
        for key in sorted(record.attrs):
            args[f"attr.{key}"] = record.attrs[key]
        events.append({
            "ph": "X",
            "pid": _PID,
            "tid": record.trace,
            "name": record.name,
            "cat": "span",
            "ts": round(record.start_ms * 1000),
            "dur": round(record.duration_ms * 1000),
            "args": args,
        })
    return events


def chrome_trace_json(records: _t.Sequence[SpanRecord]) -> str:
    """The full Trace Event Format document as a deterministic string."""
    document = {
        "displayTimeUnit": "ms",
        "traceEvents": chrome_trace_events(records),
    }
    return json.dumps(document, sort_keys=True, separators=(",", ":"),
                      default=str)


def write_chrome_trace(records: _t.Sequence[SpanRecord],
                       path: str) -> int:
    """Write the trace document to ``path``; returns the span count."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(chrome_trace_json(records) + "\n")
    return len(records)
