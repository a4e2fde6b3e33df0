"""Unified observability for the DNS→AP→edge request path.

One :class:`Telemetry` registry per testbed collects two signal kinds:

* **metrics** — named :class:`Counter`/:class:`Gauge`/:class:`Histogram`
  instruments with ``app``/``tier``/``outcome``-style labels;
* **spans** — sim-time trace trees (``request → dns_piggyback →
  {ap_hit | edge_fetch → pacm_admit}``) clocked on ``Simulator.now``.

Components take an optional ``telemetry`` argument defaulting to
:data:`NULL`, the no-op backend, so un-instrumented runs record nothing.
Exports (:mod:`.export`) are deterministic: same seed → byte-identical
JSONL.  See ``docs/telemetry.md`` for the instrument catalogue and span
taxonomy.

Each module answers one of three questions — where a request's
milliseconds went, why PACM admitted or evicted an object, what the
last change did to performance — or feeds the live-health verdict;
``docs/telemetry.md`` tables each one with the gate that reads it.
The analysis layer turns recordings into answers: :mod:`.analysis`
(span trees, critical-path attribution, run diffing), :mod:`.tracefmt`
(Perfetto-viewable Chrome traces), and :mod:`.obs` (the panels, plus
the live-health verdict behind ``repro.cli live``/``parity`` exit
codes).
"""

from repro.telemetry.analysis import (
    AttributionReport,
    SpanRecord,
    TraceTree,
    attribute,
    build_trace_trees,
    diff_runs,
    records_from_telemetry,
)
from repro.telemetry.export import (
    metric_records,
    metrics_to_jsonl,
    span_records,
    spans_to_jsonl,
    write_metrics_jsonl,
    write_spans_jsonl,
)
from repro.telemetry.instruments import (
    Counter,
    Gauge,
    Histogram,
    Instrument,
    LabelSet,
    labelset,
    percentile,
)
from repro.telemetry.registry import NULL, NullTelemetry, Telemetry
from repro.telemetry.sketch import DEFAULT_RELATIVE_ERROR, QuantileSketch
from repro.telemetry.spans import (
    Span,
    SpanLog,
    SpanScope,
    format_trace_parent,
    parse_trace_parent,
)

__all__ = [
    "AttributionReport",
    "Counter",
    "DEFAULT_RELATIVE_ERROR",
    "Gauge",
    "Histogram",
    "Instrument",
    "LabelSet",
    "NULL",
    "NullTelemetry",
    "QuantileSketch",
    "Span",
    "SpanLog",
    "SpanRecord",
    "SpanScope",
    "Telemetry",
    "TraceTree",
    "attribute",
    "build_trace_trees",
    "diff_runs",
    "format_trace_parent",
    "labelset",
    "parse_trace_parent",
    "percentile",
    "metric_records",
    "metrics_to_jsonl",
    "records_from_telemetry",
    "span_records",
    "spans_to_jsonl",
    "write_metrics_jsonl",
    "write_spans_jsonl",
]
