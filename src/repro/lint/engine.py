"""File discovery and checker execution.

The engine is deliberately free of CLI concerns so tests (and the tier-1
gate in ``tests/test_lint_clean.py``) call it as a library:

    config = load_config(repo_root)
    findings = lint_paths([repo_root / "src"], config).findings

``lint_paths`` is the one run loop.  Each file is read, parsed and
tokenized exactly once; that single tree feeds every checker, and the
file's suppression map filters their findings.
"""

from __future__ import annotations

import ast
import pathlib
import typing as _t

from repro.lint.config import LintConfig
from repro.lint.findings import Finding
from repro.lint.registry import ModuleUnderLint, all_checkers

__all__ = ["LintRun", "lint_file", "lint_paths", "iter_python_files"]


class LintRun(_t.NamedTuple):
    """Everything one :func:`lint_paths` run produced."""

    #: Every checker's findings, suppression-filtered, sorted,
    #: deduplicated.
    findings: list[Finding]
    #: Number of files scanned, including LINT999 ones.
    files: int


def iter_python_files(paths: _t.Iterable[pathlib.Path],
                      config: LintConfig) -> _t.Iterator[pathlib.Path]:
    """Expand files/directories into the sorted set of ``.py`` files."""
    seen: set[pathlib.Path] = set()
    collected: list[pathlib.Path] = []
    for path in paths:
        path = pathlib.Path(path)
        if path.is_file():
            candidates = [path]
        elif path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
        for candidate in candidates:
            if candidate.suffix != ".py":
                continue
            parts = candidate.parts
            if any(part in config.exclude or part.endswith(".egg-info")
                   or part.startswith(".") for part in parts[:-1]):
                continue
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                collected.append(candidate)
    return iter(collected)


def _relpath(path: pathlib.Path, config: LintConfig) -> str:
    """``path`` relative to the project root, POSIX separators."""
    resolved = path.resolve()
    try:
        return resolved.relative_to(config.root.resolve()).as_posix()
    except ValueError:
        return resolved.as_posix()


def _parse(path: pathlib.Path,
           config: LintConfig) -> ModuleUnderLint | Finding:
    """Read and parse one file, or the LINT999 finding saying why not."""
    relpath = _relpath(path, config)
    try:
        source = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        line = exc.object[:exc.start].count(b"\n") + 1
        return Finding(path=relpath, line=line, col=0, code="LINT999",
                       message="file is not valid UTF-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return Finding(path=relpath, line=exc.lineno or 1,
                       col=(exc.offset or 1) - 1, code="LINT999",
                       message=f"file does not parse: {exc.msg}")
    return ModuleUnderLint(relpath, source, tree, config)


def _check(module: ModuleUnderLint) -> list[Finding]:
    """The per-file checkers' unsuppressed findings for one module."""
    findings: list[Finding] = []
    for checker_class in all_checkers():
        if checker_class.code in module.config.ignore:
            continue
        findings.extend(
            finding for finding in checker_class().check(module)
            if not module.suppressions.is_suppressed(finding.code,
                                                     finding.line))
    return findings


def lint_file(path: pathlib.Path, config: LintConfig) -> list[Finding]:
    """The findings for one file, sorted by location."""
    parsed = _parse(path, config)
    if isinstance(parsed, Finding):
        return [parsed]
    return sorted(_check(parsed))


def lint_paths(paths: _t.Iterable[pathlib.Path | str],
               config: LintConfig) -> LintRun:
    """Lint every Python file under ``paths``."""
    files = list(iter_python_files(
        (pathlib.Path(p) for p in paths), config))
    findings: list[Finding] = []
    for file_path in files:
        parsed = _parse(file_path, config)
        if isinstance(parsed, Finding):
            findings.append(parsed)
        else:
            findings.extend(_check(parsed))
    return LintRun(sorted(set(findings)), len(files))
