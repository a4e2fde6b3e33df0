"""Documentation-consistency guards.

DESIGN.md's per-experiment index and README's example table are load
bearing: they tell a reader where everything lives. These tests fail
when a referenced file stops existing (or an example is added without
being documented). The telemetry audit table in docs/telemetry.md is
load bearing the same way: every ``obs``/``diff``/``live`` option and
every telemetry module needs a row naming its question, its gate, a
mutant and what killed it.
"""

import argparse
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


def _audit_rows():
    """``docs/telemetry.md``'s audit table: first cell -> other cells."""
    rows = {}
    for line in (REPO / "docs" / "telemetry.md").read_text().splitlines():
        match = re.match(
            r"\| `((?:obs|diff|live) [^`]+|telemetry/\w+\.py)` \|(.*)\|$",
            line)
        if match:
            assert match.group(1) not in rows, f"two rows: {line}"
            rows[match.group(1)] = [cell.strip() for cell
                                    in match.group(2).split("|")]
    return rows


def test_telemetry_audit_table_matches_the_cli_and_the_package():
    from repro.cli import build_parser

    (subparsers,) = [action for action in build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    options = set()
    for command in ("obs", "diff", "live"):
        for action in subparsers.choices[command]._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            name = (action.option_strings[0] if action.option_strings
                    else action.metavar)
            options.add(f"{command} {name}")
    modules = {f"telemetry/{path.name}" for path in
               (REPO / "src" / "repro" / "telemetry").glob("*.py")}
    rows = _audit_rows()
    assert sorted((options | modules) - set(rows)) == [], \
        "options/modules without an audit row"
    assert sorted(set(rows) - options - modules) == [], \
        "audit rows naming no option or module"
    for name, cells in rows.items():
        # question, gate, mutant, killer: none may be blank.
        assert len(cells) == 4 and all(cells), name
