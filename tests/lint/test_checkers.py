"""Checker behaviour against the fixture files.

Each fixture marks its violating lines with a trailing ``# expect: CODE``
comment.  The tests lint the fixture and assert the reported
``(line, code)`` pairs equal the marked ones exactly — so a checker that
misses a line, misreports a line number, or over-reports fails here.
"""

import pathlib
import re

import pytest

from repro.lint import LintConfig, lint_file

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
_EXPECT = re.compile(r"#\s*expect:\s*(?P<codes>[A-Z]+\d{3}(?:\s*,\s*[A-Z]+\d{3})*)")


def expected_findings(path: pathlib.Path) -> set[tuple[int, str]]:
    """The ``(line, code)`` pairs marked in the fixture source."""
    marks: set[tuple[int, str]] = set()
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        match = _EXPECT.search(line)
        if match:
            for code in match.group("codes").split(","):
                marks.add((number, code.strip()))
    return marks


def lint_fixture(name: str) -> list:
    config = LintConfig(root=FIXTURES)
    return lint_file(FIXTURES / name, config)


@pytest.mark.parametrize("fixture", [
    "determinism_violations.py",
    "simsafety_violations.py",
    "async_violations.py",
    "cachespec_violations.py",
    "suppressed.py",
    "det004/src/repro/telemetry/profiling.py",
    "det004/src/repro/sim_component.py",
])
def test_fixture_reports_exactly_the_marked_lines(fixture):
    findings = lint_fixture(fixture)
    reported = {(finding.line, finding.code) for finding in findings}
    assert reported == expected_findings(FIXTURES / fixture)


def test_clean_fixture_has_no_findings():
    assert lint_fixture("clean.py") == []


def test_findings_are_sorted_and_carry_columns():
    findings = lint_fixture("determinism_violations.py")
    assert findings == sorted(findings)
    assert all(finding.col >= 0 for finding in findings)
    assert all(finding.path.endswith("determinism_violations.py")
               for finding in findings)


def test_det001_catches_reintroduced_unseeded_default(tmp_path):
    # The original bug this linter exists for: sim/randomness.py's old
    # ``rng or _random.Random()`` fallback.  Reintroducing it must trip
    # DET001 at the right line.
    source = (
        "import random as _random\n"
        "\n"
        "class Sampler:\n"
        "    def __init__(self, rng=None):\n"
        "        self._rng = rng or _random.Random()\n"
    )
    target = tmp_path / "regressed.py"
    target.write_text(source)
    findings = lint_file(target, LintConfig(root=tmp_path))
    assert [(finding.code, finding.line) for finding in findings] == \
        [("DET001", 5)]


def test_syntax_error_becomes_a_finding(tmp_path):
    target = tmp_path / "broken.py"
    target.write_text("def oops(:\n")
    findings = lint_file(target, LintConfig(root=tmp_path))
    assert len(findings) == 1
    assert findings[0].code == "LINT999"


def test_wallclock_allowlist_silences_det002(tmp_path):
    (tmp_path / "tools").mkdir()
    target = tmp_path / "tools" / "bench.py"
    target.write_text("import time\nstamp = time.time()\n")
    config = LintConfig(root=tmp_path)
    assert lint_file(target, config) == []
    strict = LintConfig(root=tmp_path, wallclock_allow=())
    assert [finding.code for finding in lint_file(target, strict)] == \
        ["DET002"]


def test_cacheable_priority_range_is_configurable(tmp_path):
    target = tmp_path / "wide.py"
    target.write_text(
        "from repro.core.annotations import cacheable\n"
        "x = cacheable('http://h/a', priority=5, ttl_minutes=1)\n")
    default = LintConfig(root=tmp_path)
    assert [finding.code for finding in lint_file(target, default)] == \
        ["CACHE001"]
    widened = LintConfig(root=tmp_path, cacheable_priority_max=10)
    assert lint_file(target, widened) == []


def test_ignore_list_drops_whole_checkers(tmp_path):
    target = tmp_path / "mixed.py"
    target.write_text("import random\nx = random.random()\n")
    config = LintConfig(root=tmp_path, ignore=("DET001",))
    assert lint_file(target, config) == []


PERF103_SOURCE = '''\
def record(value, **labels):
    key = labelset(labels)
    return key


def guarded(value, **labels):
    key = () if not labels else labelset(labels)
    return key


def positional(labels):
    return labelset(labels)
'''


def test_perf103_flags_only_the_unguarded_kwargs_labelset(tmp_path):
    target = tmp_path / "instrumented.py"
    target.write_text(PERF103_SOURCE)
    findings = lint_file(target, LintConfig(root=tmp_path))
    perf103 = [(finding.code, finding.line) for finding in findings
               if finding.code == "PERF103"]
    assert perf103 == [("PERF103", 2)]
