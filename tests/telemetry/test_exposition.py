"""Prometheus exposition: golden bytes, parsing, reconstruction.

The admin plane's ``/metrics`` contract (docs/telemetry.md): the
rendered text is deterministic byte-for-byte — families sorted by
exposed name, series by label set, buckets by ascending ``le`` — and
the golden file here pins the exact bytes for every instrument shape
the registry can hold (counter, gauge, exact / sketch histograms,
escaped label values).  ``parse_exposition`` is the
scrape-side validator ``tools/check.sh`` runs against a live stack;
``telemetry_from_exposition`` is the ``obs --follow`` inverse.
"""

import pathlib

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
    exact = telemetry.histogram("demo.exact_ms", help="exact latencies",
                                buckets=(1.0, 5.0, 25.0))
    for value in (0.5, 3.0, 7.0, 100.0):
        exact.observe(value, app="news")
    sketch = telemetry.histogram("demo.sketch_ms", help="sketched",
                                 backend="sketch")
    for value in (1.0, 2.0, 4.0):
        sketch.observe(value)
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
    # Histogram families carry backend labels and cumulative buckets.
    exact = by_name["demo_exact_ms"]
    buckets = [(labels["le"], value)
               for name, labels, value in exact.samples
               if name.endswith("_bucket")]
    assert buckets == [("1.0", 1.0), ("5.0", 2.0), ("25.0", 3.0),
                       ("+Inf", 4.0)]
    assert all(labels["backend"] == "exact"
               for _n, labels, _v in exact.samples)
    sketch = by_name["demo_sketch_ms"]
    assert {labels["backend"] for _n, labels, _v in sketch.samples} \
        == {"sketch"}
    assert {labels["alpha"] for _n, labels, _v in sketch.samples} \
        == {"0.01"}


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
    assert rebuilt.histogram("demo.exact_ms").summary()["count"] == 4
    # Synthetic refills sit at bucket bounds: counts exact, quantiles
    # at bucket resolution (docs/telemetry.md spells out the fidelity).
    assert rebuilt.histogram("demo.sketch_ms").summary() != {}
    # The rebuilt text is itself stable: render(parse(render)) fixes.
    once = render_prometheus(rebuilt)
    twice = render_prometheus(telemetry_from_exposition(once))
    assert once == twice
