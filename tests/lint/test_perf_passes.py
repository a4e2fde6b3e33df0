"""PERF1xx hot-path passes: closures, attribute reloads, labelsets.

PERF101/PERF102 are whole-program passes scoped to *hot* functions
(process generators plus the configured ``perf-hot-paths`` prefixes);
PERF103 is per-file.  Each test builds a miniature module in
``tmp_path`` so positives and negatives sit side by side.
"""

import pathlib

from repro.lint import LintConfig, lint_file, lint_paths

HOT_SOURCE = '''\
def drive(items):
    total = 0
    for item in items:
        key = lambda value: value * 2
        total += key(item)
    return total


def reload_heavy(engine, rounds):
    acc = 0.0
    for _number in range(rounds):
        acc += engine.clock.now
        acc -= engine.clock.now
    return acc


def hoisted(engine, rounds):
    now = engine.clock.now
    acc = 0.0
    for _number in range(rounds):
        acc += now
        acc -= now
    return acc
'''


def _program_codes(tmp_path, source, hot_prefixes):
    target = tmp_path / "hot.py"
    target.write_text(source)
    config = LintConfig(root=tmp_path, perf_hot_paths=hot_prefixes)
    return [(finding.code, finding.line)
            for finding in lint_paths([tmp_path], config).findings
            if finding.code.startswith("PERF1")]


def test_perf101_flags_closure_construction_in_hot_loops(tmp_path):
    codes = _program_codes(tmp_path, HOT_SOURCE, ("hot.",))
    assert ("PERF101", 4) in codes


def test_perf102_flags_repeated_attribute_loads(tmp_path):
    codes = _program_codes(tmp_path, HOT_SOURCE, ("hot.",))
    perf102 = [line for code, line in codes if code == "PERF102"]
    assert len(perf102) == 1
    # Anchored at the first load site inside the loop.
    assert perf102[0] == 12


def test_hoisting_satisfies_perf102(tmp_path):
    codes = _program_codes(tmp_path, HOT_SOURCE, ("hot.",))
    # ``hoisted`` binds the chain once outside the loop: no finding
    # lands on its loop body (lines 19-23).
    assert all(line < 18 for _code, line in codes)


def test_cold_functions_are_exempt(tmp_path):
    assert _program_codes(tmp_path, HOT_SOURCE, ("othermodule.",)) == []


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
