"""Exporters: JSONL span and metric dumps.

Every exporter is deterministic — records are sorted by stable keys
(trace id, span id, instrument name, label set) and JSON is emitted with
sorted keys and fixed separators — so two runs of the same seeded
experiment produce **byte-identical** output.  Tests hash these dumps to
catch nondeterminism regressions anywhere in the instrumented stack.
"""

from __future__ import annotations

import json

from repro.telemetry.instruments import Counter, Gauge, Histogram
from repro.telemetry.registry import Telemetry

__all__ = ["span_records", "spans_to_jsonl", "metric_records",
           "metrics_to_jsonl", "write_spans_jsonl",
           "write_metrics_jsonl"]


def _dumps(record: dict[str, object]) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"),
                      default=str)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def span_records(telemetry: Telemetry) -> list[dict[str, object]]:
    """Finished spans as plain dicts, sorted by (trace, span) id."""
    records = []
    for span in sorted(telemetry.spans,
                       key=lambda span: (span.trace_id, span.span_id)):
        records.append({
            "trace": span.trace_id,
            "span": span.span_id,
            "parent": span.parent_id,
            "name": span.name,
            "start_ms": span.start_s * 1e3,
            "duration_ms": span.duration_s * 1e3,
            "status": span.status,
            "attrs": {key: span.attrs[key] for key in sorted(span.attrs)},
        })
    return records


def spans_to_jsonl(telemetry: Telemetry) -> str:
    """One JSON object per finished span, newline-separated."""
    return "\n".join(_dumps(record) for record in span_records(telemetry))


def write_spans_jsonl(telemetry: Telemetry, path: str) -> int:
    """Dump the span log to ``path``; returns the span count."""
    return _write_lines(path, spans_to_jsonl(telemetry))


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def metric_records(telemetry: Telemetry) -> list[dict[str, object]]:
    """Every (instrument, label set) as one record, sorted."""
    records: list[dict[str, object]] = []
    for instrument in telemetry.instruments():
        for labels in instrument.labelsets():
            record: dict[str, object] = {
                "name": instrument.name,
                "kind": instrument.kind,
                "labels": dict(labels),
            }
            keyed = dict(labels)
            if isinstance(instrument, (Counter, Gauge)):
                record["value"] = instrument.value(**keyed)
            elif isinstance(instrument, Histogram):
                record["summary"] = instrument.summary(**keyed)
            records.append(record)
    return records


def metrics_to_jsonl(telemetry: Telemetry) -> str:
    """One JSON object per (instrument, label set), newline-separated."""
    return "\n".join(_dumps(record)
                     for record in metric_records(telemetry))


def write_metrics_jsonl(telemetry: Telemetry, path: str) -> int:
    """Dump every metric record to ``path``; returns the record count."""
    return _write_lines(path, metrics_to_jsonl(telemetry))


def _write_lines(path: str, text: str) -> int:
    """Write newline-joined records with a trailing newline; returns
    the record count."""
    with open(path, "w") as handle:
        if text:
            handle.write(text + "\n")
    return text.count("\n") + 1 if text else 0
