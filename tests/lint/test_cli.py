"""End-to-end CLI behaviour: ``python -m repro.lint`` exit codes & output."""

import json
import os
import pathlib
import shutil
import subprocess
import sys

from repro.lint.cli import main

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def run_cli(*arguments, cwd=REPO_ROOT):
    environment = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = environment.get("PYTHONPATH")
    environment["PYTHONPATH"] = f"{src}:{existing}" if existing else src
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *arguments],
        cwd=cwd, env=environment, capture_output=True, text=True)


def test_src_is_clean_exit_zero():
    result = run_cli("src")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "clean" in result.stdout


def test_default_paths_come_from_pyproject():
    result = run_cli()
    assert result.returncode == 0, result.stdout + result.stderr


def test_fixtures_fail_with_codes_and_line_numbers():
    result = run_cli("--no-baseline",
                     str(FIXTURES / "determinism_violations.py"))
    assert result.returncode == 1
    assert "DET001" in result.stdout
    assert "DET002" in result.stdout
    assert "DET003" in result.stdout
    # path:line:col: CODE message
    assert "tests/lint/fixtures/determinism_violations.py:20:" \
        in result.stdout


def test_json_format_is_machine_readable():
    result = run_cli("--format", "json", "--no-baseline",
                     str(FIXTURES / "cachespec_violations.py"))
    assert result.returncode == 1
    document = json.loads(result.stdout)
    codes = {finding["code"] for finding in document["findings"]}
    assert codes == {"CACHE001"}
    assert all(finding["line"] > 0 for finding in document["findings"])


def test_list_checkers_names_every_layer():
    result = run_cli("--list-checkers")
    assert result.returncode == 0
    for code in ("DET001", "DET002", "DET003",
                 "SIM001", "SIM002", "CACHE001",
                 "PERF001", "PERF103", "ASYNC101", "ASYNC102"):
        assert code in result.stdout


def test_docs_catalogue_lists_exactly_the_registered_checkers():
    """A retired rule must take its docs row with it, and vice versa."""
    import re

    result = run_cli("--list-checkers")
    assert result.returncode == 0
    listed = {line.split()[0] for line in result.stdout.splitlines()
              if line.strip()}
    documented = set(re.findall(
        r"^\| `([A-Z]+\d+)` \|",
        (REPO_ROOT / "docs" / "linting.md").read_text(), re.MULTILINE))
    assert listed, "--list-checkers printed nothing"
    assert listed - documented == set(), "registered but undocumented"
    assert documented - listed == set(), "documented but not registered"


def test_fix_rewrites_in_place_and_exits_clean(tmp_path):
    target = tmp_path / "fifo.py"
    shutil.copy(FIXTURES / "autofix" / "fifo.py", target)
    result = run_cli("--fix", "--no-baseline", "fifo.py", cwd=tmp_path)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "applied" in result.stderr
    fixed = target.read_text()
    assert "popleft()" in fixed and "pop(0)" not in fixed
    # Idempotence: a second --fix run changes nothing.
    rerun = run_cli("--fix", "--no-baseline", "fifo.py", cwd=tmp_path)
    assert rerun.returncode == 0
    assert "applied 0 fix(es)" in rerun.stderr
    assert target.read_text() == fixed


def _project_tree(root):
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in root.rglob("*") if path.is_file()}


def _tmp_project(tmp_path):
    (tmp_path / "pyproject.toml").write_text(
        '[tool.repro-lint]\npaths = ["src"]\n')
    shutil.copytree(FIXTURES / "autofix", tmp_path / "src")
    return _project_tree(tmp_path)


def test_no_cache_run_writes_no_file(tmp_path):
    """The linter keeps no cache: a run over an explicit path leaves the
    project tree as it found it."""
    before = _tmp_project(tmp_path)
    result = run_cli("--no-baseline", "src/fifo.py", cwd=tmp_path)
    assert result.returncode == 1, result.stdout + result.stderr
    assert _project_tree(tmp_path) == before


def test_lint_run_leaves_the_project_tree_byte_identical(tmp_path):
    before = _tmp_project(tmp_path)
    for arguments in ((), ("--format", "json")):
        result = run_cli("--no-baseline", *arguments, cwd=tmp_path)
        assert result.returncode in (0, 1), result.stdout + result.stderr
        assert _project_tree(tmp_path) == before, arguments


def test_non_utf8_file_is_a_finding_not_a_crash(tmp_path):
    (tmp_path / "pyproject.toml").write_text("[tool.repro-lint]\n")
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "latin1.py").write_bytes(
        b'"""Latin-1, not UTF-8."""\nx = "\xe9"\n')
    result = run_cli("--no-baseline", "src", cwd=tmp_path)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "Traceback" not in result.stderr
    assert "src/latin1.py:2:0: LINT999 file is not valid UTF-8" \
        in result.stdout


def test_nonexistent_path_is_a_usage_error():
    result = run_cli("no/such/dir")
    assert result.returncode == 2
    assert "error" in result.stderr


def test_write_baseline_then_clean(tmp_path):
    baseline = tmp_path / "baseline.json"
    fixture = str(FIXTURES / "simsafety_violations.py")
    wrote = run_cli("--write-baseline", "--baseline", str(baseline),
                    fixture)
    assert wrote.returncode == 0
    rerun = run_cli("--baseline", str(baseline), fixture)
    assert rerun.returncode == 0, rerun.stdout + rerun.stderr
    assert "baselined" in rerun.stdout


def test_main_is_callable_in_process(capsys, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    assert main(["src"]) == 0
    captured = capsys.readouterr()
    assert "clean" in captured.out
