"""Budget parsing, selector resolution, and the sentry gate."""

import json

import pytest

from repro.errors import ConfigError
from repro.telemetry.analysis import attribute, records_from_telemetry
from repro.telemetry.obs import instrumented_run
from repro.telemetry.sentry import (
    budget_table,
    evaluate_budgets,
    load_budgets,
    parse_budget,
    run_sentry,
)


# ----------------------------------------------------------------------
# Parsing and validation
# ----------------------------------------------------------------------
def test_parse_budget_accepts_both_ops():
    low = parse_budget("stage:ap-hit/total/p95 <= 20")
    assert (low.selector, low.op, low.limit) == \
        ("stage:ap-hit/total/p95", "<=", 20.0)
    high = parse_budget("metric:client.fetches/value >= 800")
    assert high.op == ">=" and high.limit == 800.0
    assert parse_budget("issues <= 0").selector == "issues"


@pytest.mark.parametrize("bad", [
    "stage:ap-hit/total/p95",               # no op
    "stage:ap-hit/total/p95 <= fast",       # limit not a number
    "stage:ap-hit/p95 <= 20",               # missing a component
    "stage:ap-hit/total/p97 <= 20",         # unknown stat
    "metric:/value <= 1",                   # empty metric name
    "latency <= 20",                        # unknown selector kind
    "profile:cpu_percent <= 90",            # ditto
    "lint:cold_ms <= 4500",                 # ditto
    # Ditto, now: the wall-clock kinds the sentry used to validate and
    # then skip; bench/ is the one performance record.
    "kernel:events_per_s >= 1",
    "obs:overhead_pct <= 1",
    "lint:wall_ms <= 1",
    "profile:events_per_wall_s >= 1",
])
def test_parse_budget_rejects_malformed_specs(bad):
    with pytest.raises(ConfigError):
        parse_budget(bad)


def test_load_budgets_reads_pyproject_section(tmp_path):
    pyproject = tmp_path / "pyproject.toml"
    pyproject.write_text(
        '[tool.repro-sentry]\n'
        'budgets = ["issues <= 0", "stage:*/total/p95 <= 50"]\n')
    budgets = load_budgets(str(pyproject))
    assert [budget.render() for budget in budgets] == \
        ["issues <= 0", "stage:*/total/p95 <= 50"]


def test_load_budgets_rejects_unknown_keys_and_shapes(tmp_path):
    pyproject = tmp_path / "pyproject.toml"
    pyproject.write_text('[tool.repro-sentry]\nbudget = ["x <= 1"]\n')
    with pytest.raises(ConfigError):
        load_budgets(str(pyproject))
    pyproject.write_text('[tool.repro-sentry]\nbudgets = "issues <= 0"\n')
    with pytest.raises(ConfigError):
        load_budgets(str(pyproject))


def test_repo_pyproject_budgets_parse():
    assert load_budgets("pyproject.toml")


# ----------------------------------------------------------------------
# Resolution against a real run
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def quick_run():
    run = instrumented_run(quick=True, seed=0)
    return run, attribute(records_from_telemetry(run.telemetry))


def _evaluate(text, run, report):
    (result,) = evaluate_budgets([parse_budget(text)], run, report)
    return result


def test_missing_stage_count_resolves_to_zero(quick_run):
    run, report = quick_run
    # THE acceptance gate: the hit path never reaches the edge.
    result = _evaluate("stage:ap-hit/edge_fetch/count <= 0", run, report)
    assert result.value == 0.0 and result.ok


def test_missing_stage_latency_is_unresolved_hence_violation(quick_run):
    run, report = quick_run
    result = _evaluate("stage:ap-hit/edge_fetch/p95 <= 5", run, report)
    assert result.value is None and not result.ok


def test_stage_and_metric_selectors_resolve(quick_run):
    run, report = quick_run
    total = _evaluate("stage:*/total/count >= 1", run, report)
    assert total.ok and total.value == float(len(report.requests))
    fetches = _evaluate("metric:client.fetches/value >= 1", run, report)
    assert fetches.ok and fetches.value >= 1.0
    labeled = _evaluate("metric:client.fetches{hit=yes}/value >= 1",
                        run, report)
    assert labeled.ok and labeled.value < fetches.value
    histogram = _evaluate("metric:client.total_ms/p95 >= 0", run, report)
    assert histogram.ok and histogram.value > 0.0
    issues = _evaluate("issues <= 0", run, report)
    assert issues.ok and issues.value == 0.0


def test_unknown_metric_is_a_violation_not_a_crash(quick_run):
    run, report = quick_run
    result = _evaluate("metric:no.such.metric/value <= 1", run, report)
    assert result.value is None and not result.ok
    table = budget_table([result])
    assert table.column("value") == ["(unresolved)"]
    assert table.column("verdict") == ["VIOLATION"]


def test_every_repo_budget_is_evaluated(quick_run):
    run, report = quick_run
    budgets = load_budgets("pyproject.toml")
    # A declared budget nothing evaluates is decoration, not a gate.
    assert len(evaluate_budgets(budgets, run, report)) == len(budgets)


# ----------------------------------------------------------------------
# Report assembly and the CLI core
# ----------------------------------------------------------------------
def test_run_sentry_writes_report_and_passes(tmp_path):
    output = tmp_path / "report.json"
    tables, code = run_sentry(quick=True, seed=0, output=str(output))
    assert code == 0
    attribution, verdicts = tables
    assert "ap-hit" in attribution.column("source")
    assert all(verdict == "ok" for verdict in verdicts.column("verdict"))
    document = json.loads(output.read_text())
    assert document["ok"] is True
    assert document["attribution"]["issues"] == []
    assert document["scenario"]["system"] == "APE-CACHE"
    assert "timings" not in document  # nothing wall-clock derived


def test_run_sentry_fails_on_an_injected_violation(tmp_path):
    output = tmp_path / "report.json"
    tables, code = run_sentry(
        quick=True, seed=0, output=str(output),
        extra_budgets=["stage:ap-hit/total/p95 <= 1"])
    assert code == 1
    verdicts = tables[1]
    assert "VIOLATION" in verdicts.column("verdict")
    assert any("violation" in note for note in verdicts.notes)
    document = json.loads(output.read_text())
    assert document["ok"] is False
