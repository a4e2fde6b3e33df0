"""The ``repro obs`` panel, the host-profiling hook, and the demo."""

import importlib.util
import json
import pathlib

import pytest

from repro.cli import build_parser, main
from repro.errors import TelemetryError
from repro.telemetry.obs import hit_ratio_table, run_obs, stage_table
from repro.telemetry.profiling import HostProfile
from repro.telemetry.registry import Telemetry


# ----------------------------------------------------------------------
# Host profiling
# ----------------------------------------------------------------------
class FakeSim:
    """Just the two kernel fields HostProfile reads."""

    def __init__(self) -> None:
        self.events_processed = 0
        self.now = 0.0


def test_host_profile_measures_deltas():
    sim = FakeSim()
    profile = HostProfile(sim).start()
    sim.events_processed = 1000
    sim.now = 2.0
    report = profile.stop()
    assert report.events == 1000
    assert report.sim_s == 2.0
    assert report.wall_s >= 0.0
    assert report.events_per_wall_s >= 0.0
    assert "events" in report.render()


def test_host_profile_stop_requires_start():
    with pytest.raises(TelemetryError):
        HostProfile(FakeSim()).stop()


# ----------------------------------------------------------------------
# The obs panel
# ----------------------------------------------------------------------
def test_run_obs_builds_both_panels(tmp_path):
    spans_path = tmp_path / "spans.jsonl"
    tables = run_obs(quick=True, seed=0, spans_path=str(spans_path),
                     profile=True)
    stages, attribution, hits = tables

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
    assert any("host profile" in note for note in stages.notes)

    lines = spans_path.read_text().splitlines()
    assert lines
    record = json.loads(lines[0])
    assert {"trace", "span", "name", "duration_ms"} <= set(record)


def test_panel_builders_tolerate_an_empty_registry():
    telemetry = Telemetry()
    assert stage_table(telemetry).rows == []
    assert hit_ratio_table(telemetry).rows == []


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------
def test_parser_accepts_obs_flags():
    args = build_parser().parse_args(
        ["obs", "--seed", "2", "--spans", "x.jsonl", "--profile"])
    assert args.command == "obs"
    assert args.seed == 2
    assert args.spans == "x.jsonl"
    assert args.profile


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
        "live.loop_lag_ms (p99) = (missing) > 200",
    ]
    register_live_instruments(telemetry)
    # Registered but never probed: the lag bound still has no reading.
    assert live_health_violations(telemetry) == [
        "live.loop_lag_ms (p99) = (missing) > 200"]
    telemetry.histogram("live.loop_lag_ms").observe(200.0)
    assert live_health_violations(telemetry) == []
    telemetry.histogram("live.loop_lag_ms").observe(400.0)
    # Nearest rank: p99 is the 400 ms probe's sketch bucket, within 1 %.
    assert live_health_violations(telemetry) == [
        "live.loop_lag_ms (p99) = 399.474 > 200"]
