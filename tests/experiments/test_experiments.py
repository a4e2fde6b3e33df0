"""Experiment-harness tests: table rendering and cheap experiment runs.

The expensive sweeps are exercised by ``tools/make_experiments_report.py
--check`` (test_report.py runs its cheap sections); here we test the
harness machinery and the experiments that run in seconds.
"""

import pytest

from repro.experiments import table7
from repro.experiments.common import ExperimentTable, quick_duration
from repro.sim import HOUR, MINUTE


# ----------------------------------------------------------------------
# ExperimentTable
# ----------------------------------------------------------------------
def test_table_add_row_and_column():
    table = ExperimentTable("demo", columns=["x", "y"])
    table.add_row(x=1, y=2.5)
    table.add_row(x=2, y=3.5)
    assert table.column("y") == [2.5, 3.5]


def test_table_rejects_unknown_columns():
    table = ExperimentTable("demo", columns=["x"])
    with pytest.raises(ValueError):
        table.add_row(z=1)


def test_table_render_alignment_and_notes():
    table = ExperimentTable("demo", columns=["name", "value"])
    table.add_row(name="alpha", value=1.0)
    table.add_row(name="beta-longer", value=123.456)
    table.notes.append("a note")
    rendered = table.render()
    lines = rendered.splitlines()
    assert lines[0] == "== demo =="
    assert "name" in lines[1] and "value" in lines[1]
    assert lines[-1] == "  note: a note"
    # Header, rule and data lines all sit on one width grid.
    assert len({len(line) for line in lines[1:-1]}) == 1
    assert "beta-longer" in rendered


def test_table_float_formatting():
    table = ExperimentTable("fmt", columns=["v"])
    table.add_row(v=1.23456)
    table.add_row(v=123.456)
    rendered = table.render()
    assert "1.235" in rendered   # small floats: 3 decimals
    assert "123.5" in rendered   # large floats: 1 decimal


def test_duration_helpers(monkeypatch):
    assert quick_duration(True) == 4 * MINUTE
    assert quick_duration(False) == 1 * HOUR
    assert quick_duration(True, quick_s=2 * MINUTE) == 2 * MINUTE
    # The helper follows its flag only; the environment is read once,
    # by the entry points that compute the flag.
    monkeypatch.setenv("REPRO_FULL", "1")
    assert quick_duration(True, quick_s=2 * MINUTE) == 2 * MINUTE
    assert quick_duration(False, quick_s=2 * MINUTE) == 1 * HOUR


# ----------------------------------------------------------------------
# Cheap experiments end to end
# ----------------------------------------------------------------------
def test_table7_runs_and_matches_paper_shape():
    table = table7.run()
    assert len(table.rows) == 4
    rows = {(row["app"], row["approach"]): row for row in table.rows}
    annotation = rows[("MovieTrailer", "APE-CACHE (annotations)")]
    api_based = rows[("MovieTrailer", "API-based")]
    assert int(annotation["impacted_locs"]) < \
        int(api_based["impacted_locs"])
    assert annotation["rewrite_logic"] == "No"


def test_table7_loc_counters_directly():
    from repro.apps.api_ports import VirtualHomeApiBased
    from repro.apps.virtualhome import VirtualHomeApi
    annotation_locs = table7.annotation_impacted_locs(VirtualHomeApi)
    api_locs = table7.api_impacted_locs(
        VirtualHomeApiBased.place_furniture)
    assert annotation_locs >= 2   # two declarations, possibly wrapped
    assert api_locs >= 2          # two rewritten call sites


def test_fig2_experiment_runs():
    from repro.experiments import fig2
    table = fig2.run()
    assert {row["trace"] for row in table.rows} == {"low-rate",
                                                    "high-rate"}
