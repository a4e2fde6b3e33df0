"""SIM001 and ASYNC101 read one blocking-call table.

Every entry of ``BLOCKING_CALLS`` and ``BLOCKING_BUILTINS`` is called
once inside a simulation process (SIM001 must flag it) and once inside
a coroutine (ASYNC101 must flag it, naming the entry's blocking kind).
"""

import textwrap

import pytest

from repro.lint import LintConfig, lint_file, lint_paths
from repro.lint.checkers.simsafety import (BLOCKING_BUILTINS,
                                           BLOCKING_CALLS)


def _call_site(target):
    """``(import line, call expression, ASYNC101 kind)`` for an entry."""
    if target in BLOCKING_BUILTINS:
        return "", f"{target}('x')", BLOCKING_BUILTINS[target]
    path = f"{target}blocking_op" if target.endswith(".") else target
    module = path.rpartition(".")[0]
    return f"import {module}", f"{path}()", BLOCKING_CALLS[target]


ENTRIES = sorted(BLOCKING_CALLS) + sorted(BLOCKING_BUILTINS)


@pytest.mark.parametrize("target", ENTRIES)
def test_sim001_flags_every_table_entry(tmp_path, target):
    header, call, _kind = _call_site(target)
    source = tmp_path / "proc.py"
    source.write_text(textwrap.dedent(f"""\
        {header}


        def proc(sim):
            yield sim.timeout(1)
            {call}
        """))
    findings = lint_file(source, LintConfig(root=tmp_path))
    assert [(finding.code, finding.line) for finding in findings] == \
        [("SIM001", 6)]


@pytest.mark.parametrize("target", ENTRIES)
def test_async101_flags_every_table_entry(tmp_path, target):
    header, call, kind = _call_site(target)
    source = tmp_path / "handler.py"
    source.write_text(textwrap.dedent(f"""\
        {header}


        async def handler():
            {call}
        """))
    findings = [finding for finding in
                lint_paths([source], LintConfig(root=tmp_path)).findings
                if finding.code == "ASYNC101"]
    assert [finding.line for finding in findings] == [5]
    assert f"blocking {kind} call" in findings[0].message
