"""The ``repro obs`` panel, its ``--top`` table, and the demo."""

import importlib.util
import json
import pathlib

from repro.cli import build_parser, main
from repro.telemetry.analysis import SpanRecord, attribute
from repro.telemetry.obs import (
    hit_ratio_table,
    run_obs,
    stage_table,
    top_traces_table,
)
from repro.telemetry.registry import Telemetry


# ----------------------------------------------------------------------
# The obs panel
# ----------------------------------------------------------------------
def test_run_obs_builds_both_panels(tmp_path):
    spans_path = tmp_path / "spans.jsonl"
    tables = run_obs(quick=True, seed=0, spans_path=str(spans_path),
                     top=3)
    stages, attribution, hits, top = tables

    assert attribution.rows, "attribution panel is empty"
    assert "ap-hit" in attribution.column("source")

    stage_names = stages.column("stage")
    assert "dns lookup (piggybacked)" in stage_names
    assert "end-to-end" in stage_names
    assert any("ap-hit" in str(name) for name in stage_names)
    assert all(count > 0 for count in stages.column("count"))

    assert hits.rows, "per-app panel is empty"
    assert all(0.0 <= ratio <= 1.0
               for ratio in hits.column("hit_ratio"))
    assert any("Gini" in note for note in hits.notes)

    assert top.title == "obs: top 3 slowest request traces"
    assert len(top.rows) == 3
    assert top.column("total_ms") == sorted(top.column("total_ms"),
                                            reverse=True)

    lines = spans_path.read_text().splitlines()
    assert lines
    record = json.loads(lines[0])
    assert {"trace", "span", "name", "duration_ms"} <= set(record)


def test_panel_builders_tolerate_an_empty_registry():
    telemetry = Telemetry()
    assert stage_table(telemetry).rows == []
    assert hit_ratio_table(telemetry).rows == []


# ----------------------------------------------------------------------
# obs --top: the slowest request traces
# ----------------------------------------------------------------------
def _trace(trace, total_ms, stages, source="ap-hit"):
    """A ``request`` root plus one sequential child span per stage."""
    records = [SpanRecord(trace=trace, span=trace * 10, parent=None,
                          name="request", start_ms=0.0,
                          duration_ms=total_ms,
                          attrs={"app": f"app{trace}",
                                 "source": source})]
    start = 0.0
    for offset, (name, ms) in enumerate(stages, start=1):
        records.append(SpanRecord(trace=trace, span=trace * 10 + offset,
                                  parent=trace * 10, name=name,
                                  start_ms=start, duration_ms=ms))
        start += ms
    return records


def test_top_traces_rank_by_total_then_trace_id():
    records = (_trace(1, 20.0, [("dns_piggyback", 5.0)])
               + _trace(2, 40.0, [("dns_piggyback", 5.0),
                                  ("ap_hit", 30.0)])
               + _trace(3, 40.0, [("ap_hit", 10.0)])
               + _trace(4, 5.0, [("ap_hit", 5.0)]))
    table = top_traces_table(attribute(records), 3)
    assert table.columns == ["trace", "app", "source", "total_ms",
                             "stage_breakdown"]
    # 40 ms twice (tie broken by the lower trace id), then 20 ms; the
    # 5 ms trace falls outside the top 3.
    assert table.column("trace") == [2, 3, 1]
    assert table.column("total_ms") == [40.0, 40.0, 20.0]
    # Nonzero self-times only, largest first: trace 2's root owns
    # 40 - 5 - 30 = 5 ms, tied with dns_piggyback and ordered by name.
    assert table.column("stage_breakdown") == [
        "ap_hit 30.00 | dns_piggyback 5.00 | request 5.00",
        "request 30.00 | ap_hit 10.00",
        "request 15.00 | dns_piggyback 5.00",
    ]
    # A request fully covered by its child has no root self-time.
    whole = top_traces_table(attribute(_trace(4, 5.0, [("ap_hit", 5.0)])),
                             1)
    assert whole.column("stage_breakdown") == ["ap_hit 5.00"]
    assert not any("no complete request traces" in note
                   for note in table.notes)


def test_top_traces_on_an_empty_report_says_so():
    table = top_traces_table(attribute([]), 5)
    assert table.rows == []
    assert "no complete request traces recorded" in table.notes


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------
def test_parser_accepts_obs_flags():
    args = build_parser().parse_args(
        ["obs", "--seed", "2", "--spans", "x.jsonl", "--top", "3"])
    assert args.command == "obs"
    assert args.seed == 2
    assert args.spans == "x.jsonl"
    assert args.top == 3


def test_obs_options_reach_the_panel(tmp_path, monkeypatch, capsys):
    import repro.telemetry.obs as obs_module
    from repro.experiments.common import ExperimentTable

    calls = []

    def fake_run_obs(quick, seed, **kwargs):
        calls.append(dict(quick=quick, seed=seed, **kwargs))
        table = ExperimentTable("panel", columns=["x"])
        table.add_row(x=1)
        return [table]

    monkeypatch.setattr(obs_module, "run_obs", fake_run_obs)
    out = tmp_path / "panel.csv"
    assert main(["obs", "--full", "--seed", "3", "--spans", "s.jsonl",
                 "--export-metrics", "m.jsonl", "--export-trace",
                 "t.json", "--top", "4", "--format", "csv",
                 "--output", str(out)]) == 0
    assert calls == [dict(quick=False, seed=3, spans_path="s.jsonl",
                          metrics_path="m.jsonl", trace_path="t.json",
                          top=4)]
    assert out.read_text() == "x\n1\n\n"
    capsys.readouterr()


def test_follow_polls_count_times_and_exports_the_last_scrape(
        tmp_path, monkeypatch, capsys):
    import time
    import urllib.request

    from repro.telemetry.exposition import render_prometheus

    source = Telemetry()
    source.counter("client.fetches").inc(app="maps", hit="yes")
    source.histogram("client.total_ms").observe(12.0, source="ap-hit")
    text = render_prometheus(source).encode("utf-8")
    scraped, slept = [], []

    class _Reply:
        def __enter__(self):
            return self

        def __exit__(self, *_exc):
            return False

        def read(self):
            return text

    def fake_urlopen(url, timeout):
        scraped.append(url)
        return _Reply()

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    monkeypatch.setattr(time, "sleep", slept.append)
    final = tmp_path / "final.jsonl"
    assert main(["obs", "--follow", "127.0.0.1:9100", "--interval",
                 "0.5", "--count", "3", "--export-metrics",
                 str(final)]) == 0
    assert scraped == ["http://127.0.0.1:9100/metrics"] * 3
    # One sleep between consecutive polls, none after the last.
    assert slept == [0.5, 0.5]
    out = capsys.readouterr().out
    assert out.count("== obs: per-stage latency breakdown") == 3
    records = [json.loads(line)
               for line in final.read_text().splitlines()]
    assert {record["name"] for record in records} == {
        "client.fetches", "client.total_ms"}


def test_cli_obs_prints_the_breakdown(capsys):
    assert main(["obs"]) == 0
    out = capsys.readouterr().out
    assert "per-stage latency breakdown" in out
    assert "per-app hit ratio" in out
    assert "end-to-end" in out


# ----------------------------------------------------------------------
# examples/telemetry_demo.py
# ----------------------------------------------------------------------
def test_telemetry_demo_example_runs(capsys):
    path = (pathlib.Path(__file__).resolve().parents[2] / "examples" /
            "telemetry_demo.py")
    spec = importlib.util.spec_from_file_location("telemetry_demo", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    out = capsys.readouterr().out
    assert "source=ap-delegated" in out    # the cold round
    assert "source=ap-hit" in out          # the warm round
    assert "ap.pacm_admit" in out          # the trace tree
    assert "instrument snapshot" in out
    assert "byte-identical" in out


# ----------------------------------------------------------------------
# Live socket-health panel
# ----------------------------------------------------------------------
def test_live_health_table_surfaces_task_gauge():
    from repro.engine.livenet import register_live_instruments
    from repro.telemetry.obs import live_health_table

    telemetry = Telemetry()
    assert live_health_table(telemetry) is None  # simulated runs opt out

    register_live_instruments(telemetry)
    telemetry.get("live.tasks_active").set(3.0)
    table = live_health_table(telemetry)
    assert table is not None
    rows = {row["instrument"]: row["value"] for row in table.rows}
    assert rows["live.tasks_active (now)"] == 3
    assert rows["live.socket_errors"] == 0
    assert rows["live.in_flight (now)"] == 0


def test_live_health_violations_count_missing_instruments_as_broken():
    from repro.engine.livenet import register_live_instruments
    from repro.telemetry.obs import live_health_violations

    telemetry = Telemetry()
    assert live_health_violations(telemetry) == [
        "live.socket_errors = (missing) > 0",
        "live.loop_stalls = (missing) > 0",
    ]
    register_live_instruments(telemetry)
    # Registered and never bumped: both bounds hold.
    assert live_health_violations(telemetry) == []
    telemetry.counter("live.loop_stalls").inc()
    assert live_health_violations(telemetry) == [
        "live.loop_stalls = 1 > 0"]
