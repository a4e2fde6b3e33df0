"""Prometheus exposition: golden bytes, parsing, reconstruction.

The admin plane's ``/metrics`` contract (docs/telemetry.md): the
rendered text is deterministic byte-for-byte — families sorted by
exposed name, series by label set, buckets by ascending ``le`` — and
the golden file here pins the exact bytes for every instrument shape
the registry can hold (counter, gauge, labelled and unlabelled sketch
histograms with a zero bucket, escaped label values).
``parse_exposition`` is the scrape-side validator ``tools/check.sh``
runs against a live stack; ``telemetry_from_exposition`` is the ``obs
--follow`` inverse.
"""

import pathlib
import random

import pytest

from repro.errors import TelemetryError
from repro.telemetry.exposition import (
    PROM_CONTENT_TYPE,
    parse_exposition,
    render_prometheus,
    sanitize_name,
    telemetry_from_exposition,
)
from repro.telemetry.registry import Telemetry

GOLDEN = pathlib.Path(__file__).parent / "golden" / "metrics.prom"


def build_registry() -> Telemetry:
    """One instrument of every shape the exposition must handle."""
    telemetry = Telemetry()
    requests = telemetry.counter("demo.requests", help="demo requests")
    requests.inc(3, app="news")
    requests.inc(2, app="video")
    # Label values exercising every escape: backslash, quote, newline.
    weird = telemetry.counter("demo.weird_labels",
                              help="escaping: \\ and newline\nhere")
    weird.inc(1, path='c:\\tmp\\"x"\nnext')
    telemetry.gauge("demo.in_flight", help="open exchanges").set(
        4, tier="ap")
    latency = telemetry.histogram("demo.latency_ms", help="latencies")
    for value in (0.5, 3.0, 7.0, 100.0):
        latency.observe(value, app="news")
    depth = telemetry.histogram("demo.depth", help="queue depth")
    for value in (0.0, 1.0, 2.0, 4.0):
        depth.observe(value)
    return telemetry


def test_golden_exposition_bytes():
    rendered = render_prometheus(build_registry())
    assert rendered == GOLDEN.read_text(), \
        "exposition drifted from tests/telemetry/golden/metrics.prom"


def test_two_renders_are_byte_identical():
    telemetry = build_registry()
    first = render_prometheus(telemetry)
    second = render_prometheus(telemetry)
    assert first == second
    # Rendering must not perturb any instrument (a scrape observes).
    assert render_prometheus(build_registry()) == first


def test_content_type_pins_the_text_format():
    assert PROM_CONTENT_TYPE.startswith("text/plain")
    assert "version=0.0.4" in PROM_CONTENT_TYPE


def test_sanitize_name_maps_dots_and_leading_digits():
    assert sanitize_name("live.loop_lag_ms") == "live_loop_lag_ms"
    assert sanitize_name("a-b c") == "a_b_c"
    assert sanitize_name("9lives") == "_9lives"


def test_name_collision_is_an_error():
    telemetry = Telemetry()
    telemetry.counter("a.b").inc()
    telemetry.counter("a_b").inc()
    with pytest.raises(TelemetryError, match="collision"):
        render_prometheus(telemetry)


def test_parse_round_trips_families_and_escapes():
    rendered = render_prometheus(build_registry())
    families = parse_exposition(rendered)
    names = [family.name for family in families]
    assert names == sorted(names)
    by_name = {family.name: family for family in families}
    weird = by_name["demo_weird_labels"]
    assert weird.source == "demo.weird_labels"
    assert weird.help == "escaping: \\ and newline\nhere"
    [(sample, labels, value)] = weird.samples
    assert labels == {"path": 'c:\\tmp\\"x"\nnext'}
    assert value == 1.0
    # Histogram families carry one cumulative bucket per sketch bucket
    # (upper bound gamma^i), and no label the registry did not record.
    latency = by_name["demo_latency_ms"]
    buckets = [(float(labels["le"]), value)
               for name, labels, value in latency.samples
               if name.endswith("_bucket")]
    assert [count for _bound, count in buckets] == [1.0, 2.0, 3.0, 4.0,
                                                    4.0]
    bounds = [bound for bound, _count in buckets]
    assert bounds[-1] == float("inf")
    for value, bound in zip((0.5, 3.0, 7.0, 100.0), bounds):
        assert value <= bound <= value * 1.03
    assert {key for _n, labels, _v in latency.samples for key in labels} \
        == {"app", "le"}


def test_parser_rejects_malformed_lines():
    with pytest.raises(TelemetryError, match="line 1"):
        parse_exposition("}{ nonsense\n")
    with pytest.raises(TelemetryError, match="before any TYPE"):
        parse_exposition("orphan_sample 1\n")
    with pytest.raises(TelemetryError, match="out of sorted order"):
        parse_exposition("# TYPE bbb counter\nbbb 1\n"
                         "# TYPE aaa counter\naaa 1\n")
    with pytest.raises(TelemetryError, match="bad sample value"):
        parse_exposition("# TYPE a counter\na pancake\n")
    with pytest.raises(TelemetryError, match="unterminated label"):
        parse_exposition('# TYPE a counter\na{x="oops 1\n')
    with pytest.raises(TelemetryError,
                       match="lacks a _bucket/_sum/_count"):
        parse_exposition("# TYPE h histogram\nh 1\n")


def test_unknown_comments_are_ignored():
    families = parse_exposition(
        "# scraped by tools/check.sh\n# TYPE a counter\na 2\n")
    assert len(families) == 1
    assert families[0].samples == [("a", {}, 2.0)]


def test_reconstruction_round_trips_counters_and_gauges():
    source = build_registry()
    rebuilt = telemetry_from_exposition(render_prometheus(source))
    requests = rebuilt.counter("demo.requests")
    assert requests.value(app="news") == 3
    assert requests.value(app="video") == 2
    assert rebuilt.gauge("demo.in_flight").value(tier="ap") == 4
    weird = rebuilt.counter("demo.weird_labels")
    assert weird.value(path='c:\\tmp\\"x"\nnext') == 1


def test_reconstruction_preserves_histogram_counts():
    source = build_registry()
    rebuilt = telemetry_from_exposition(render_prometheus(source))
    for name in ("demo.latency_ms", "demo.depth"):
        assert rebuilt.histogram(name).count() == \
            source.histogram(name).count()
        assert rebuilt.histogram(name).sum() == \
            source.histogram(name).sum()
    # The rebuilt sketches render to the source's bytes.
    assert render_prometheus(rebuilt) == render_prometheus(source)


def test_reconstruction_returns_the_sources_quantiles():
    source = Telemetry()
    lag = source.histogram("live.loop_lag_ms", help="lag")
    rng = random.Random(5)
    for _ in range(20_000):
        lag.observe(rng.expovariate(0.5))
    rebuilt = telemetry_from_exposition(render_prometheus(source))
    again = rebuilt.histogram("live.loop_lag_ms")
    assert again.count() == lag.count()
    for q in (50.0, 95.0):
        assert again.percentile(q) == lag.percentile(q)


def test_reconstruction_cost_does_not_grow_with_observations():
    # Rebuilding sets bucket counts; it never replays observations, so
    # a series that has counted a trillion of them rebuilds at once.
    text = ('# TYPE lag histogram\n'
            'lag_bucket{le="1.0"} 400000000000\n'
            'lag_bucket{le="1.0202"} 1000000000000\n'
            'lag_bucket{le="+Inf"} 1000000000000\n'
            'lag_sum 2.5e12\n'
            'lag_count 1000000000000\n')
    lag = telemetry_from_exposition(text).histogram("lag")
    assert lag.count() == 10 ** 12
    assert lag.sum() == 2.5e12
    assert lag.percentile(50.0) == pytest.approx(1.01)


def test_reconstruction_refuses_counts_the_buckets_do_not_hold():
    with pytest.raises(TelemetryError, match="count says 5"):
        telemetry_from_exposition(
            '# TYPE lag histogram\n'
            'lag_bucket{le="1.0"} 4\n'
            'lag_bucket{le="+Inf"} 5\n'
            'lag_sum 4.5\n'
            'lag_count 5\n')
