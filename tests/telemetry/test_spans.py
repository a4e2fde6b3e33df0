"""Span and registry tests: nesting, the sim clock, the null backend."""

import pytest

from repro.errors import TelemetryError
from repro.telemetry import (
    NULL,
    NullTelemetry,
    Span,
    Telemetry,
    format_trace_parent,
    parse_trace_parent,
)
from repro.telemetry.spans import SpanLog


class ManualClock:
    """A settable clock standing in for ``Simulator.now``."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# ----------------------------------------------------------------------
# SpanLog
# ----------------------------------------------------------------------
def test_span_reads_clock_on_entry_and_exit():
    clock = ManualClock()
    log = SpanLog(clock)
    with log.span("request", app="maps") as span:
        clock.now = 0.25
    assert span.start_s == 0.0
    assert span.end_s == 0.25
    assert span.duration_s == 0.25
    assert span.status == "ok"
    assert span.attrs == {"app": "maps"}


def test_nested_spans_share_the_trace_and_point_at_parents():
    log = SpanLog(ManualClock())
    with log.span("request") as request:
        with log.span("dns_piggyback", parent=request) as dns:
            pass
        with log.span("edge_fetch", parent=request) as edge:
            with log.span("pacm_admit", parent=edge) as admit:
                pass
    assert request.parent_id is None
    assert request.trace_id == request.span_id
    for child in (dns, edge, admit):
        assert child.trace_id == request.trace_id
    assert dns.parent_id == request.span_id
    assert admit.parent_id == edge.span_id
    assert log.children_of(request) == [dns, edge]
    # Completion order: children finish before their parents.
    assert [span.name for span in log] == [
        "dns_piggyback", "pacm_admit", "edge_fetch", "request"]


def test_tuple_parent_links_across_components():
    log = SpanLog(ManualClock())
    with log.span("client_stage") as stage:
        header = format_trace_parent(stage)
        link = parse_trace_parent(header)
        with log.span("ap.request", parent=link) as ap_span:
            pass
    assert link == stage.context
    assert ap_span.trace_id == stage.trace_id
    assert ap_span.parent_id == stage.span_id


def test_parse_trace_parent_rejects_garbage():
    assert parse_trace_parent(None) is None
    assert parse_trace_parent("") is None
    assert parse_trace_parent("not-a-trace") is None
    assert parse_trace_parent("1.x") is None
    assert parse_trace_parent("12.34") == (12, 34)


def test_span_records_error_status_on_exception():
    log = SpanLog(ManualClock())
    with pytest.raises(ValueError):
        with log.span("request"):
            raise ValueError("boom")
    (span,) = log.finished("request")
    assert span.status == "error:ValueError"
    assert span.finished


def test_span_ring_drops_oldest_and_counts():
    log = SpanLog(ManualClock(), max_spans=2)
    for index in range(3):
        with log.span(f"s{index}"):
            pass
    assert len(log) == 2
    assert log.dropped == 1
    assert log.started == 3
    assert [span.name for span in log] == ["s1", "s2"]


def test_render_trace_indents_children():
    log = SpanLog(ManualClock())
    with log.span("request") as request:
        with log.span("dns_piggyback", parent=request):
            pass
    rendered = log.render_trace(request.trace_id)
    lines = rendered.splitlines()
    assert lines[0].startswith("#")           # the root, unindented
    assert lines[1].startswith("  #")         # the child, indented


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_registry_shares_instruments_by_name():
    telemetry = Telemetry()
    first = telemetry.counter("dns.queries", help="queries")
    second = telemetry.counter("dns.queries")
    assert first is second
    assert "dns.queries" in telemetry
    assert [i.name for i in telemetry.instruments()] == ["dns.queries"]


def test_registry_rejects_kind_clash():
    telemetry = Telemetry()
    telemetry.counter("x")
    with pytest.raises(TelemetryError):
        telemetry.histogram("x")


def test_registry_clock_drives_spans():
    clock = ManualClock()
    telemetry = Telemetry(clock)
    clock.now = 1.5
    with telemetry.span("request") as span:
        clock.now = 2.0
    assert telemetry.now() == 2.0
    assert (span.start_s, span.end_s) == (1.5, 2.0)


# ----------------------------------------------------------------------
# The null backend
# ----------------------------------------------------------------------
def test_null_backend_is_inert_and_allocation_free():
    assert isinstance(NULL, NullTelemetry)
    assert NULL.enabled is False
    counter = NULL.counter("anything")
    assert counter is NULL.gauge("else") is NULL.histogram("more")
    counter.inc(app="maps")
    counter.observe(1.0)
    counter.set(2.0)
    assert counter.total() == 0.0
    assert not hasattr(counter, "samples")  # no raw sample is kept
    assert counter.labelsets() == []
    assert counter.summary() == {"count": 0.0}


def test_null_backend_spans_record_nothing():
    with NULL.span("request", app="maps") as span:
        assert isinstance(span, Span)
        span.set_attr("source", "ap-hit")  # tolerated, discarded
    assert len(NULL.spans) == 0
    assert NULL.spans.started == 0
