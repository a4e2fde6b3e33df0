"""Documentation-consistency guards.

DESIGN.md's per-experiment index and README's example table are load
bearing: they tell a reader where everything lives. These tests fail
when a referenced file stops existing (or an example is added without
being documented).
"""

import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_design_md_referenced_files_exist():
    text = (REPO / "DESIGN.md").read_text()
    referenced = set(re.findall(
        r"`((?:src/repro|examples|tools)[\w/.-]+\.(?:py|md))`",
        text))
    referenced |= {f"src/repro/{match}" for match in re.findall(
        r"`((?:experiments|measurement|apps|core|cache|dnslib|sim|net|"
        r"baselines)/[\w/.-]+\.py)`", text)}
    assert referenced, "DESIGN.md lists no files?"
    missing = sorted(path for path in referenced
                     if not (REPO / path).exists())
    assert not missing, f"DESIGN.md references missing files: {missing}"


def test_experiment_lists_agree():
    """One list of experiments: the CLI's, the report's, the index's."""
    from repro.experiments import EXPERIMENTS
    from tests.experiments.test_report import load_tool

    reported = [section[0] for section in load_tool().SECTIONS]
    assert len(reported) == len(set(reported))
    assert set(reported) == set(EXPERIMENTS)
    indexed = set(re.findall(r"`repro\.cli (\w+)`",
                             (REPO / "DESIGN.md").read_text()))
    assert indexed == set(EXPERIMENTS)


def test_every_example_is_documented_in_readme():
    readme = (REPO / "README.md").read_text()
    examples = sorted(path.name for path in
                      (REPO / "examples").glob("*.py"))
    assert examples
    for example in examples:
        assert example in readme, \
            f"examples/{example} missing from README's example table"


def test_readme_documented_examples_exist():
    readme = (REPO / "README.md").read_text()
    for name in re.findall(r"`(\w+\.py)` \|", readme):
        assert (REPO / "examples" / name).exists(), name


def test_changelog_and_contributing_exist():
    assert (REPO / "CHANGES.md").exists()
    assert (REPO / "CONTRIBUTING.md").exists()
    assert (REPO / "EXPERIMENTS.md").exists()
    assert (REPO / "docs" / "protocol.md").exists()
    assert (REPO / "docs" / "architecture.md").exists()
    assert (REPO / "docs" / "pacm.md").exists()
    assert (REPO / "docs" / "linting.md").exists()
    assert (REPO / "docs" / "telemetry.md").exists()
    assert (REPO / "docs" / "experiments.md").exists()
