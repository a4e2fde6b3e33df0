"""Host clocks in the telemetry layer, over the ``fixtures/det004/`` tree.

The tree mimics the real layout (a ``src/repro/telemetry/`` subtree).
It was written for DET004, a telemetry-only clock rule that is now
folded into DET002: these tests pin that DET002 alone flags every
host-clock read there, and that no second rule is left behind it.
"""

import pathlib
import re

from repro.lint import LintConfig, lint_file

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
BAD_CLOCK = FIXTURES / "det004" / "src/repro/telemetry/bad_clock.py"
_EXPECT = re.compile(r"#\s*expect:\s*(?P<code>[A-Z]+\d{3})")


def marked_lines(path: pathlib.Path) -> set[tuple[int, str]]:
    marks = set()
    for number, line in enumerate(path.read_text().splitlines(), 1):
        match = _EXPECT.search(line)
        if match:
            marks.add((number, match.group("code")))
    return marks


def test_host_clocks_in_telemetry_report_exactly_the_marked_lines():
    findings = lint_file(BAD_CLOCK, LintConfig(root=FIXTURES))
    assert {(f.line, f.code) for f in findings} == marked_lines(BAD_CLOCK)
    assert all("sim.now" in f.message for f in findings)


def test_det002_is_the_only_rule_on_telemetry_clocks():
    """Without an allowance each marked call gets DET002 and nothing
    else; with the wall-clock allowance the file is clean, because no
    telemetry-only rule remains to fire."""
    by_line: dict[int, set[str]] = {}
    for finding in lint_file(BAD_CLOCK, LintConfig(root=FIXTURES)):
        by_line.setdefault(finding.line, set()).add(finding.code)
    assert by_line == {line: {"DET002"}
                       for line, _ in marked_lines(BAD_CLOCK)}
    allowed = LintConfig(root=FIXTURES, wallclock_allow=("det004/",))
    assert lint_file(BAD_CLOCK, allowed) == []
