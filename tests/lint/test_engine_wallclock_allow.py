"""The real-time engine's entry on ``wallclock-allow`` (docs/live.md).

Exactly one library module — the real-time engine — may read the host
clock to implement ``engine.now``; everything else stays under DET002.
The fixture tree under ``fixtures/engine_allow`` mirrors the real
layout: a blessed ``src/repro/engine/wallclock.py`` plus an
unsanctioned sibling that must still be flagged.
"""

import dataclasses
import pathlib

from repro.lint import LintConfig, lint_file
from repro.lint.config import load_config

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "engine_allow"
ENGINE = FIXTURES / "src" / "repro" / "engine"
REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def test_blessed_engine_module_is_clean_by_default():
    config = LintConfig(root=FIXTURES)
    assert lint_file(ENGINE / "wallclock.py", config) == []


def test_allowance_is_per_file_not_per_package():
    config = LintConfig(root=FIXTURES)
    findings = lint_file(ENGINE / "sidecar.py", config)
    assert [finding.code for finding in findings] == ["DET002"]


def test_dropping_the_allowance_restores_det002():
    strict = LintConfig(root=FIXTURES, wallclock_allow=())
    codes = [finding.code
             for finding in lint_file(ENGINE / "wallclock.py", strict)]
    assert codes and set(codes) == {"DET002"}


def test_repo_pyproject_blesses_exactly_the_real_engine():
    config = load_config(REPO_ROOT)
    assert config.allows_wallclock("src/repro/engine/wallclock.py")
    assert not config.allows_wallclock("src/repro/engine/livenet.py")
    assert not config.allows_wallclock("src/repro/sim/kernel.py")


def test_real_wallclock_module_lints_clean_only_when_blessed():
    config = load_config(REPO_ROOT)
    target = REPO_ROOT / "src" / "repro" / "engine" / "wallclock.py"
    assert lint_file(target, config) == []
    strict = dataclasses.replace(config, wallclock_allow=())
    codes = [finding.code for finding in lint_file(target, strict)]
    # WallClock.now / _schedule plus the LoopLagWatchdog's three
    # monotonic() probes — every host-clock read lives in this file.
    assert codes == ["DET002"] * 5
