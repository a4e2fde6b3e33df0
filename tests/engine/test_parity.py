"""The sim-vs-live parity gate itself, run at quick scale."""

from repro.engine.parity import (
    DEFAULT_TOLERANCE_MS,
    parity_workload,
    run_parity,
)


def test_parity_workload_is_deterministic_and_sequential():
    assert parity_workload(2) == parity_workload(2)
    assert len(parity_workload(3)) == 9


def test_quick_parity_holds(capsys):
    tables, code = run_parity(quick=True, seed=0,
                              emit=lambda line: None)
    assert code == 0
    taxonomy = tables[0]
    assert taxonomy.rows, "taxonomy table is empty"
    assert set(taxonomy.column("verdict")) == {"ok"}
    # Both sources of the quick workload appear on both engines.
    sources = set(taxonomy.column("source"))
    assert {"ap-hit", "ap-delegated"} <= sources
    assert f"{DEFAULT_TOLERANCE_MS:g} ms" in " ".join(taxonomy.notes)
    # The live run's socket-health panel rode along, every bound held.
    health = tables[-1]
    assert health.title == "obs: live socket health"
    assert not any(note.startswith("VIOLATION")
                   for note in health.notes)


def test_parity_runs_outside_the_repo_root(tmp_path, monkeypatch):
    # Nothing parity reads is a path relative to the working directory.
    monkeypatch.chdir(tmp_path)
    _tables, code = run_parity(quick=True, seed=0,
                               emit=lambda line: None)
    assert code == 0


def test_live_socket_error_breaks_parity():
    from repro.engine.livenet import register_live_instruments
    from repro.engine.parity import ParityReport

    sim = _request_run("sim", 200.0)
    live = _request_run("live", 200.0)
    register_live_instruments(live.telemetry)
    report = ParityReport(sim=sim, live=live, mismatches=[],
                          stat_entries=[])
    assert report.ok
    live.telemetry.counter("live.socket_errors").inc(role="ap")
    assert not report.ok
    health = report.tables()[-1]
    assert "VIOLATION: live.socket_errors = 1 > 0" in health.notes


# ----------------------------------------------------------------------
# Tolerance and taxonomy edges (synthetic span logs)
# ----------------------------------------------------------------------
def _request_run(engine_name: str, stage_ms: float,
                 with_stage: bool = True):
    """One synthetic request trace: ``request`` root + one DNS stage."""
    from repro.engine.parity import _EngineRun
    from repro.telemetry.analysis import SpanRecord
    from repro.telemetry.registry import Telemetry

    spans = [SpanRecord(trace=1, span=1, parent=None, name="request",
                        start_ms=0.0, duration_ms=1000.0,
                        attrs={"app": "app-a", "source": "ap-hit"})]
    if with_stage:
        spans.append(SpanRecord(trace=1, span=2, parent=1,
                                name="dns_piggyback", start_ms=0.0,
                                duration_ms=stage_ms))
    return _EngineRun(engine=engine_name, sources=["ap-hit"],
                      spans=spans, duration_s=1.0,
                      telemetry=Telemetry())


def test_wall_jitter_exactly_at_tolerance_passes():
    # The contract is |delta| <= tolerance: a live run slower by
    # *exactly* the 250 ms budget still holds parity; one ms past
    # it does not.
    from repro.engine.parity import _compare

    sim = _request_run("sim", 200.0)
    at_boundary = _request_run("live", 200.0 + DEFAULT_TOLERANCE_MS)
    mismatches, stats = _compare(sim, at_boundary, DEFAULT_TOLERANCE_MS)
    assert mismatches == []
    assert stats == []

    beyond = _request_run("live", 201.0 + DEFAULT_TOLERANCE_MS)
    mismatches, stats = _compare(sim, beyond, DEFAULT_TOLERANCE_MS)
    assert mismatches == []
    assert stats, "251 ms of stage jitter must breach the 250 ms budget"
    assert any("dns_piggyback" in line for line in stats)


def test_missing_stage_attribution_fails_with_readable_diff():
    from repro.engine.parity import ParityReport, _compare

    sim = _request_run("sim", 200.0)
    live = _request_run("live", 200.0, with_stage=False)
    mismatches, stats = _compare(sim, live, DEFAULT_TOLERANCE_MS)
    # The exact tier names the lost stage and both counts.
    assert "ap-hit/dns_piggyback count: sim=1 live=None" in mismatches

    report = ParityReport(sim=sim, live=live,
                          mismatches=mismatches, stat_entries=stats)
    assert not report.ok
    taxonomy = report.tables()[0]
    row = next(row for row in taxonomy.rows
               if row["source"] == "ap-hit"
               and row["stage"] == "dns_piggyback")
    assert row["sim_count"] == "1"
    assert row["live_count"] == "-"
    assert row["verdict"] == "MISMATCH"
    assert any("MISMATCH: ap-hit/dns_piggyback" in note
               for note in taxonomy.notes)
