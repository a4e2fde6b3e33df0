"""Unified observability for the DNS→AP→edge request path.

One :class:`Telemetry` registry per testbed collects three signal kinds:

* **metrics** — named :class:`Counter`/:class:`Gauge`/:class:`Histogram`
  instruments with ``app``/``tier``/``outcome``-style labels;
* **spans** — sim-time trace trees (``request → dns_piggyback →
  {ap_hit | edge_fetch → pacm_admit}``) clocked on ``Simulator.now``;
* **host profiling** — the opt-in wall-clock view in :mod:`.profiling`.

Components take an optional ``telemetry`` argument defaulting to
:data:`NULL`, the no-op backend, so un-instrumented runs record nothing.
Exports (:mod:`.export`) are deterministic: same seed → byte-identical
JSONL.  See ``docs/telemetry.md`` for the instrument catalogue and span
taxonomy.

The analysis layer turns recordings into decisions: :mod:`.analysis`
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
    snapshot_table,
    span_records,
    spans_to_jsonl,
    write_metrics_jsonl,
    write_spans_jsonl,
)
from repro.telemetry.instruments import (
    DEFAULT_LATENCY_BUCKETS_MS,
    HISTOGRAM_BACKENDS,
    Counter,
    Gauge,
    Histogram,
    Instrument,
    LabelSet,
    labelset,
    percentile,
)
from repro.telemetry.profiling import HostProfile, HostProfileReport
from repro.telemetry.registry import NULL, NullTelemetry, Telemetry
from repro.telemetry.sampling import TailSampler
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
    "DEFAULT_LATENCY_BUCKETS_MS",
    "DEFAULT_RELATIVE_ERROR",
    "Gauge",
    "HISTOGRAM_BACKENDS",
    "Histogram",
    "HostProfile",
    "HostProfileReport",
    "Instrument",
    "LabelSet",
    "NULL",
    "NullTelemetry",
    "QuantileSketch",
    "Span",
    "SpanLog",
    "SpanRecord",
    "SpanScope",
    "TailSampler",
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
    "snapshot_table",
    "span_records",
    "spans_to_jsonl",
    "write_metrics_jsonl",
    "write_spans_jsonl",
]
