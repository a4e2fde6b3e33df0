"""Span recording keeps every trace: no sampling, and no drift.

The span log commits every finished span in completion order.  These
tests pin that default; a sampling policy that drops traces has to
change them on purpose.
"""

from repro.telemetry import Telemetry


class _Clock:
    """A hand-cranked sim clock for driving spans without a kernel."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def _request(telemetry, clock, duration_ms, fail=False, children=1):
    """One root with ``children`` child spans, lasting duration_ms."""
    try:
        with telemetry.span("request") as root:
            for _ in range(children):
                with telemetry.span("stage", parent=root):
                    clock.t += duration_ms / children * 1e-3
            if fail:
                raise RuntimeError("boom")
    except RuntimeError:
        pass


def test_same_workload_keeps_identical_trace_sets():
    def run():
        clock = _Clock()
        telemetry = Telemetry(clock=clock)
        for turn in range(12):
            _request(telemetry, clock,
                     duration_ms=50.0 if turn % 5 == 0 else 2.0,
                     fail=turn == 7)
        return [(span.name, span.span_id, span.trace_id,
                 span.status, dict(span.attrs))
                for span in telemetry.spans]

    first = run()
    assert first == run()
    # Every trace is kept, slow, fast and failed alike.
    assert len(first) == 24
    assert [status for name, _span, _trace, status, _attrs in first
            if name == "request"].count("error:RuntimeError") == 1


def test_without_a_sampler_every_span_is_recorded():
    clock = _Clock()
    telemetry = Telemetry(clock=clock)
    _request(telemetry, clock, duration_ms=1.0)
    assert len(telemetry.spans) == 2
    root = telemetry.spans.finished("request")[0]
    assert root.attrs == {}
