"""The paper artifact is checked: ``make_experiments_report.py --check``.

Runs the seven sections that regenerate in about a second each against
the committed EXPERIMENTS.md (``tools/check.sh`` runs all thirteen),
and shows the gate biting on a stale table and on a broken shape.
"""

import importlib.util
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent.parent
CHEAP = ["table1", "fig2", "fig11b", "fig14", "table7", "offline",
         "multiap"]


def load_tool():
    """A fresh import of tools/make_experiments_report.py (no package)."""
    spec = importlib.util.spec_from_file_location(
        "make_experiments_report",
        REPO / "tools" / "make_experiments_report.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tool():
    return load_tool()


def test_committed_report_matches_a_fresh_run(tool, capsys):
    assert tool.main(["--check", *CHEAP]) == 0, capsys.readouterr().err


def test_check_names_a_stale_section(tool, tmp_path, monkeypatch, capsys):
    committed = tool.REPORT.read_text()
    heading = committed.index("== Table VII")
    digit = re.compile(r"\d").search(committed, heading)
    flipped = str((int(digit.group()) + 1) % 10)
    stale = tmp_path / "EXPERIMENTS.md"
    stale.write_text(
        committed[:digit.start()] + flipped + committed[digit.end():])
    monkeypatch.setattr(tool, "REPORT", stale)
    assert tool.main(["--check", "table7"]) == 1
    assert "FAIL table7" in capsys.readouterr().err


def test_check_names_a_section_whose_shape_broke(tool, monkeypatch,
                                                 capsys):
    def broken(tables):
        assert len(tables) == 0, "annotations no longer win"

    monkeypatch.setattr(tool, "SECTIONS", [
        section[:3] + (broken,) if section[0] == "table7" else section
        for section in tool.SECTIONS])
    assert tool.main(["--check", "table7"]) == 1
    err = capsys.readouterr().err
    assert "FAIL table7" in err and "annotations no longer win" in err
