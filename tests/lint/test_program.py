"""Whole-program pass behaviour against the ``fixtures/program`` tree.

The fixture package is a miniature project (``src/repro/...``) whose
violations *require* inter-procedural analysis: the DET101 chain spans
four modules (source → re-export → wrapper → sim sink), the DET102
chain returns a dict view across a function boundary, and the SIM101
race splits its writes across two generator methods.  Violating lines
carry ``# expect: CODE`` markers, and the tests assert the reported
``(path, line, code)`` triples match exactly — negatives (seeded RNGs,
sorted views, lock-guarded writes) live in the same files, so
over-reporting fails too.
"""

import pathlib
import re

from repro.lint import LintConfig, lint_paths

PROGRAM = pathlib.Path(__file__).parent / "fixtures" / "program"
_EXPECT = re.compile(
    r"#\s*expect:\s*(?P<codes>[A-Z]+\d{3}(?:\s*,\s*[A-Z]+\d{3})*)")


def expected_findings(root: pathlib.Path) -> set[tuple[str, int, str]]:
    """Every ``(relpath, line, code)`` marked under ``root``."""
    marks: set[tuple[str, int, str]] = set()
    for path in sorted(root.rglob("*.py")):
        relpath = path.relative_to(root).as_posix()
        lines = path.read_text().splitlines()
        for number, line in enumerate(lines, start=1):
            match = _EXPECT.search(line)
            if match:
                for code in match.group("codes").split(","):
                    marks.add((relpath, number, code.strip()))
    return marks


def lint_program_fixture():
    config = LintConfig(root=PROGRAM)
    return lint_paths([PROGRAM], config).findings


def test_program_fixture_reports_exactly_the_marked_lines():
    findings = lint_program_fixture()
    reported = {(finding.path, finding.line, finding.code)
                for finding in findings}
    assert reported == expected_findings(PROGRAM)


def test_det101_trace_spans_the_whole_chain():
    findings = [finding for finding in lint_program_fixture()
                if finding.code == "DET101"]
    assert len(findings) == 1
    trace = findings[0].trace
    assert len(trace) >= 3
    # Anchored at the source, ending at the sim-visible sink.
    assert findings[0].path.endswith("entropy.py")
    assert trace[0].path.endswith("entropy.py")
    assert trace[-1].path.endswith("driver.py")
    assert "sink" in trace[-1].note
    # The trace survives JSON serialization.
    payload = findings[0].to_dict()
    assert [step["path"] for step in payload["trace"]] == \
        [step.path for step in trace]


def test_det102_anchors_at_the_escaping_view():
    findings = [finding for finding in lint_program_fixture()
                if finding.code == "DET102"]
    assert len(findings) == 1
    assert findings[0].path.endswith("orderlib.py")
    assert findings[0].trace[-1].path.endswith("consumer.py")


def test_sim101_names_both_writers():
    findings = [finding for finding in lint_program_fixture()
                if finding.code == "SIM101"]
    assert len(findings) == 1
    message = findings[0].message
    assert "count_fetches" in message
    assert "count_delegations" in message
    assert "SerializedTally" not in message
    assert {step.path for step in findings[0].trace} == \
        {"src/repro/races.py"}


def test_tel002_factory_leak_traces_back_to_the_definition():
    findings = [finding for finding in lint_program_fixture()
                if finding.code == "TEL002"
                and finding.path.endswith("spansite.py")]
    # Two direct leaks plus two factory-call leaks.
    assert len(findings) == 4
    factory_leaks = [finding for finding in findings if finding.trace]
    assert len(factory_leaks) == 2
    for finding in factory_leaks:
        assert "never entered" in finding.message
        assert len(finding.trace) == 2
        assert "returns a span" in finding.trace[0].note
        assert finding.trace[1].line == finding.line
    direct = [finding for finding in findings if not finding.trace]
    assert all("wrap it in 'with telemetry.span(...)'" in
               finding.message.replace('"', "'") or
               "with telemetry.span" in finding.message
               for finding in direct)


def test_tel003_allow_list_exempts_the_driver():
    config = LintConfig(root=PROGRAM,
                        span_loop_allow=("repro.hotspans.pump",))
    findings = [finding for finding in lint_paths([PROGRAM], config).findings
                if finding.code == "TEL003"]
    assert findings == []


def test_tel003_names_the_loop_and_the_escape_hatch():
    findings = [finding for finding in lint_program_fixture()
                if finding.code == "TEL003"]
    assert len(findings) == 1
    message = findings[0].message
    assert "repro.hotspans.pump" in message
    assert "span-loop-allow" in message


def test_tel002_hints_are_configurable():
    # An empty hint list disables the rule outright.
    config = LintConfig(root=PROGRAM, span_receiver_hints=())
    findings = [finding for finding in lint_paths([PROGRAM], config).findings
                if finding.code == "TEL002"]
    assert findings == []


def test_runner_string_registers_a_process_generator():
    config = LintConfig(root=PROGRAM)
    program = lint_paths([PROGRAM], config).program
    generators = set(program.process_generators())
    # ``drain`` has no sim handle and yields no known event factory —
    # only the "repro.cells:drain" runner string marks it.
    assert "repro.cells.drain" in generators


def test_build_skips_broken_files(tmp_path):
    good = tmp_path / "good.py"
    good.write_text("def fine():\n    return 1\n")
    bad = tmp_path / "bad.py"
    bad.write_text("def oops(:\n")
    latin1 = tmp_path / "latin1.py"
    latin1.write_bytes(b'def latin():\n    return "\xe9"\n')
    run = lint_paths([good, bad, latin1], LintConfig(root=tmp_path))
    assert [(finding.path, finding.code) for finding in run.findings] == \
        [("bad.py", "LINT999"), ("latin1.py", "LINT999")]
    assert [module.path for module in run.program.modules] == ["good.py"]
    assert "good.fine" in run.program.functions
    assert run.files == 3
