"""Tier-1 gate: ``src/`` must be lint-clean modulo the committed baseline.

This is the CI tooth of ``repro.lint`` (docs/linting.md): any
determinism or simulation-safety finding in ``src/`` that is not in
``tools/lint_baseline.json`` fails the ordinary test run.  To accept an
intentional finding, regenerate the baseline
(``python -m repro.lint --write-baseline``) and commit the diff; to
silence a single line, use ``# lint: disable=CODE``.
"""

import pathlib

import pytest

from repro.lint import lint_paths, load_config
from repro.lint.baseline import load_baseline, split_by_baseline

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def src_lint():
    """One lint run over the configured paths, shared by both tests."""
    config = load_config(REPO_ROOT)
    findings = lint_paths([REPO_ROOT / path for path in config.paths],
                          config).findings
    return findings, load_baseline(config.baseline_path())


def test_src_has_no_unbaselined_lint_findings(src_lint):
    findings, baseline = src_lint
    fresh, _grandfathered = split_by_baseline(findings, baseline)
    assert fresh == [], (
        "new lint findings (fix them, suppress with '# lint: "
        "disable=CODE', or regenerate the baseline — see "
        "docs/linting.md):\n"
        + "\n".join(finding.render() for finding in fresh))


def test_baseline_has_no_stale_entries(src_lint):
    # Entries that no longer correspond to a real finding mean the code
    # was fixed but the baseline wasn't regenerated; keep it honest.
    findings, baseline = src_lint
    current_keys = {finding.baseline_key() for finding in findings}
    stale = baseline - current_keys
    assert stale == set(), (
        f"stale baseline entries (run `python -m repro.lint "
        f"--write-baseline` and commit): {sorted(stale)}")
