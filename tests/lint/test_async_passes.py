"""ASYNC101-103 / ENG101 behaviour against the ``fixtures/program`` tree.

The exact positive/negative line coverage lives in
``test_program.py``'s marker match; these tests pin the parts markers
cannot express — witness-trace shape, allowlist semantics (both "don't
report my sites" and "don't traverse through me"), fix payloads, the
ASYNC102 ``--fix`` round-trip, and the ``--stats`` async section.
"""

import pathlib
import shutil

from repro.lint import LintConfig, lint_paths
from repro.lint.fixes import fix_source
from repro.lint.program.asyncsafety import async_stats

PROGRAM = pathlib.Path(__file__).parent / "fixtures" / "program"
ASYNC_FILES = [PROGRAM / "src" / "repro" / name
               for name in ("asyncblock.py", "asynctasks.py",
                            "asyncshared.py", "engtime.py")]


def _findings(code, **overrides):
    config = LintConfig(root=PROGRAM, **overrides)
    return [finding for finding in lint_paths([PROGRAM], config).findings
            if finding.code == code]


# -- ASYNC101 ------------------------------------------------------------

def test_async101_traces_the_caller_chain():
    findings = [finding for finding in _findings("ASYNC101")
                if finding.path.endswith("asyncblock.py")]
    assert len(findings) == 3
    by_line = {finding.line: finding for finding in findings}
    helper = next(finding for finding in findings
                  if "slow_helper" in finding.message)
    assert "repro.asyncblock.handler" in helper.message
    assert helper.trace[0].note.startswith("coroutine")
    assert "handler" in helper.trace[0].note
    assert "blocking sleep call" in helper.trace[-1].note
    assert helper.trace[-1].line == helper.line
    direct = next(finding for finding in findings
                  if "repro.asyncblock.direct" in finding.message)
    assert direct.trace == ()
    assert "coroutine repro.asyncblock.direct makes" in direct.message
    assert set(by_line) == {line for line, _f in by_line.items()}


def test_async101_allowlist_blesses_own_sites():
    blessed = _findings(
        "ASYNC101",
        async_blocking_allow=("repro.asyncblock.sanctioned_flush",))
    blessed_block = [finding for finding in blessed
                     if finding.path.endswith("asyncblock.py")]
    assert len(blessed_block) == 2
    assert all("sanctioned_flush" not in finding.message
               for finding in blessed_block)


def test_async101_allowlist_blocks_traversal():
    # Blessing the *coroutine* severs the only path to slow_helper's
    # blocking site: a blessed function does not forward its callees'
    # sites upward, and traversal never crosses it.
    blessed = _findings(
        "ASYNC101",
        async_blocking_allow=("repro.asyncblock.handler",))
    assert all("slow_helper" not in finding.message
               for finding in blessed)


# -- ASYNC102 ------------------------------------------------------------

def test_async102_fix_shapes():
    findings = [finding for finding in _findings("ASYNC102")
                if finding.path.endswith("asynctasks.py")]
    assert len(findings) == 4
    bare = next(finding for finding in findings
                if finding.fix and len(finding.fix.edits) == 1)
    (edit,) = bare.fix.edits
    assert edit.replacement == "await "
    assert (edit.start_line, edit.start_col) == (edit.end_line,
                                                 edit.end_col)
    drops = [finding for finding in findings
             if finding.fix and len(finding.fix.edits) == 3]
    assert len(drops) == 2  # create_task + ensure_future
    for finding in drops:
        texts = [e.replacement for e in finding.fix.edits]
        assert any("_BACKGROUND_TASKS: set = set()" in t for t in texts)
        assert any("add_done_callback" in t for t in texts)
    sync = next(finding for finding in findings if finding.fix is None)
    assert "asyncio.run" in sync.message


def test_async102_fix_roundtrip(tmp_path):
    target = tmp_path / "asynctasks.py"
    shutil.copy(PROGRAM / "src" / "repro" / "asynctasks.py", target)
    config = LintConfig(root=tmp_path)
    before = lint_paths([target], config).findings
    assert {finding.code for finding in before} == {"ASYNC102"}
    fixed, applied = fix_source(target.read_text(), before)
    target.write_text(fixed)
    # Three findings carried fixes; the sync-caller drop has none.
    assert len(applied) == 3

    assert "await work()" in fixed
    assert fixed.count("_BACKGROUND_TASKS: set = set()") == 1
    assert fixed.count(
        "_bg_task.add_done_callback(_BACKGROUND_TASKS.discard)") == 2
    assert "_bg_task = asyncio.create_task(work())" in fixed
    assert "_bg_task = asyncio.ensure_future(work())" in fixed

    after = lint_paths([target], config).findings
    assert len(after) == 1  # only the fixless sync-caller drop remains
    assert after[0].fix is None

    # Idempotent: a second apply is a byte-for-byte no-op.
    again, applied_again = fix_source(target.read_text(), after)
    assert applied_again == []
    assert again == target.read_text()


# -- ASYNC103 ------------------------------------------------------------

def test_async103_names_both_writers():
    findings = [finding for finding in _findings("ASYNC103")
                if finding.path.endswith("asyncshared.py")]
    assert len(findings) == 2
    race = next(finding for finding in findings if finding.trace)
    assert "add_delegation" in race.message
    assert "add_fetch" in race.message
    assert "GuardedTally" not in race.message
    assert len(race.trace) == 2
    assert all("writes self.total" in step.note for step in race.trace)


def test_async103_flags_sync_lock_across_await():
    findings = [finding for finding in _findings("ASYNC103")
                if finding.path.endswith("asyncshared.py")
                and not finding.trace]
    assert len(findings) == 1
    assert "_mutex" in findings[0].message
    assert "async with asyncio.Lock()" in findings[0].message


# -- ENG101 --------------------------------------------------------------

def test_eng101_trace_reaches_the_wall_sink():
    findings = _findings("ENG101")
    assert len(findings) == 3
    crossing = next(finding for finding in findings
                    if any("deadline_for" in step.note
                           for step in finding.trace))
    assert crossing.path.endswith("engtime.py")
    assert "time-domain lattice" in crossing.message
    assert "asyncio.sleep" in crossing.message
    assert crossing.trace[0].note.startswith("source:")
    assert "wall-time sink" in crossing.trace[-1].note


def test_eng101_blessed_engine_is_exempt():
    blessed = _findings(
        "ENG101",
        engine_wallclock_allow=("src/repro/engtime.py",))
    assert blessed == []


# -- --stats ------------------------------------------------------------

def test_async_stats_counts_the_fixture_facts():
    config = LintConfig(root=PROGRAM)
    program = lint_paths(ASYNC_FILES, config).program
    stats = async_stats(program)
    assert stats["coroutines"] == 16
    assert stats["blocking_sites"] == 4
    assert stats["dropped_tasks"] == 2
    assert stats["sync_locks_across_await"] == 1
    assert stats["simtime_sources"] == 4
    assert stats["wall_sinks"] >= 10


def test_summary_records_async_facts():
    config = LintConfig(root=PROGRAM)
    program = lint_paths(ASYNC_FILES, config).program
    tasks = program.functions["repro.asynctasks.fire_and_forget"]
    assert tasks.is_coroutine
    assert len(tasks.task_drops) == 1
    assert tasks.task_drops[0].api == "asyncio.create_task"
    helper = program.functions["repro.asyncblock.slow_helper"]
    assert not helper.is_coroutine
    assert helper.blocking_calls[0].kind == "sleep"
    shared = program.functions["repro.asyncshared.Mixer.update"]
    assert len(shared.lock_awaits) == 1
