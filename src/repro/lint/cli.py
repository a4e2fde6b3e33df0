"""Command-line entry point: ``python -m repro.lint [paths]``.

Exit codes: 0 — clean (baselined findings allowed); 1 — fresh findings;
2 — usage or configuration error.

``--fix`` applies every machine-applicable repair carried by the
findings (seed injection, ``list.pop(0)`` → ``deque``, ``sorted()``
wrappers), then re-lints so the report reflects the repaired tree —
fixes are idempotent, so a second ``--fix`` run is a no-op.

A lint run writes no file; only ``--fix`` and ``--write-baseline`` do.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import typing as _t

from repro.errors import ConfigError
from repro.lint.baseline import (load_baseline, split_by_baseline,
                                 write_baseline)
from repro.lint.config import LintConfig, load_config
from repro.lint.engine import lint_paths
from repro.lint.findings import Finding
from repro.lint.fixes import fix_source
from repro.lint.registry import all_checkers

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description=("AST-based determinism & simulation-safety linter "
                     "for the APE-CACHE reproduction."))
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint (default: the "
                             "[tool.repro-lint] paths, i.e. src)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="output format")
    parser.add_argument("--baseline", default=None,
                        help="baseline file (default: from pyproject)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore the baseline; report everything")
    parser.add_argument("--write-baseline", action="store_true",
                        help="write current findings as the new baseline "
                             "and exit 0")
    parser.add_argument("--fix", action="store_true",
                        help="apply machine-applicable fixes, then "
                             "re-lint and report what remains")
    parser.add_argument("--list-checkers", action="store_true",
                        help="list registered checkers and exit")
    return parser


def _print_text(fresh: _t.Sequence[Finding],
                baselined: _t.Sequence[Finding],
                stream: _t.TextIO) -> None:
    for finding in fresh:
        print(finding.render(), file=stream)
    if fresh:
        counts: dict[str, int] = {}
        for finding in fresh:
            counts[finding.code] = counts.get(finding.code, 0) + 1
        summary = ", ".join(f"{code}: {count}"
                            for code, count in sorted(counts.items()))
        print(f"\n{len(fresh)} finding(s) ({summary})", file=stream)
    else:
        print("clean", file=stream)
    if baselined:
        print(f"({len(baselined)} baselined finding(s) not shown; "
              f"see the baseline file)", file=stream)


def _print_json(fresh: _t.Sequence[Finding],
                baselined: _t.Sequence[Finding],
                stream: _t.TextIO) -> None:
    document = {
        "findings": [finding.to_dict() for finding in fresh],
        "baselined": [finding.to_dict() for finding in baselined],
    }
    json.dump(document, stream, indent=2)
    stream.write("\n")


def _apply_fixes(findings: _t.Sequence[Finding],
                 config: LintConfig) -> tuple[int, int]:
    """Rewrite files in place; returns (fixes applied, files touched)."""
    by_path: dict[str, list[Finding]] = {}
    for finding in findings:
        if finding.fix is not None:
            by_path.setdefault(finding.path, []).append(finding)
    applied = 0
    touched = 0
    for relpath in sorted(by_path):
        target = config.root / relpath
        try:
            source = target.read_text(encoding="utf-8")
        except OSError:  # pragma: no cover - race with deletion
            continue
        new_source, done = fix_source(source, by_path[relpath])
        if done and new_source != source:
            target.write_text(new_source, encoding="utf-8")
            applied += len(done)
            touched += 1
    return applied, touched


def main(argv: _t.Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_checkers:
        for checker_class in all_checkers():
            print(f"{checker_class.code}  {checker_class.description}")
        return 0

    try:
        config = load_config(pathlib.Path.cwd())
        paths = [pathlib.Path(p) for p in args.paths] \
            or [config.root / p for p in config.paths]
        run = lint_paths(paths, config)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"repro.lint: error: {exc}", file=sys.stderr)
        return 2

    baseline_path = pathlib.Path(args.baseline) if args.baseline \
        else config.baseline_path()

    if args.write_baseline:
        write_baseline(baseline_path, run.findings)
        print(f"wrote {len(run.findings)} finding(s) to {baseline_path}",
              file=sys.stderr)
        return 0

    try:
        baseline = set() if args.no_baseline \
            else load_baseline(baseline_path)
    except ConfigError as exc:
        print(f"repro.lint: error: {exc}", file=sys.stderr)
        return 2
    fresh, baselined = split_by_baseline(run.findings, baseline)

    if args.fix:
        applied, touched = _apply_fixes(fresh, config)
        print(f"applied {applied} fix(es) in {touched} file(s)",
              file=sys.stderr)
        if touched:
            # Re-lint so the report (and exit code) reflect the
            # repaired tree; fixes are idempotent so this converges.
            run = lint_paths(paths, config)
            fresh, baselined = split_by_baseline(run.findings, baseline)

    if args.format == "json":
        _print_json(fresh, baselined, sys.stdout)
    else:
        _print_text(fresh, baselined, sys.stdout)
    return 1 if fresh else 0
