"""Baseline round-trip: write → re-run → clean; plus format validation."""

import json
import pathlib

import pytest

from repro.errors import ConfigError
from repro.lint import LintConfig, lint_paths
from repro.lint.baseline import (load_baseline, split_by_baseline,
                                 write_baseline)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def test_baseline_round_trip(tmp_path):
    config = LintConfig(root=FIXTURES)
    findings = lint_paths([FIXTURES], config).findings
    assert findings, "fixtures should produce findings"

    baseline_file = tmp_path / "baseline.json"
    write_baseline(baseline_file, findings)
    baseline = load_baseline(baseline_file)

    fresh, grandfathered = split_by_baseline(findings, baseline)
    assert fresh == []
    assert grandfathered == findings


def test_new_finding_is_fresh_against_old_baseline(tmp_path):
    config = LintConfig(root=FIXTURES)
    findings = lint_paths([FIXTURES], config).findings
    baseline_file = tmp_path / "baseline.json"
    write_baseline(baseline_file, findings[:-1])  # last finding missing
    fresh, grandfathered = split_by_baseline(
        findings, load_baseline(baseline_file))
    assert fresh == [findings[-1]]
    assert len(grandfathered) == len(findings) - 1


def test_baseline_file_is_stable_json(tmp_path):
    config = LintConfig(root=FIXTURES)
    findings = lint_paths([FIXTURES], config).findings
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    write_baseline(first, findings)
    write_baseline(second, list(reversed(findings)))
    assert first.read_text() == second.read_text()
    document = json.loads(first.read_text())
    assert document["version"] == 1
    assert all({"path", "code", "line", "message"} <= set(entry)
               for entry in document["findings"])


def test_missing_baseline_means_empty(tmp_path):
    assert load_baseline(tmp_path / "absent.json") == set()


def test_corrupt_baseline_raises_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_baseline(bad)
    wrong_version = tmp_path / "old.json"
    wrong_version.write_text('{"version": 99, "findings": []}')
    with pytest.raises(ConfigError):
        load_baseline(wrong_version)
