"""Linter configuration, read from ``[tool.repro-lint]`` in pyproject.toml.

All keys are optional; the defaults below encode this repository's
conventions.  ``load_config`` walks upward from the scanned path to find
the project root (the directory holding ``pyproject.toml``), so the
linter behaves identically whether invoked from the repo root, from
``src/``, or from a test.
"""

from __future__ import annotations

import dataclasses
import pathlib
import tomllib
import typing as _t

from repro.errors import ConfigError

__all__ = ["LintConfig", "load_config", "find_project_root"]

#: Modules allowed to read the wall clock (DET002).  Real time is only
#: meaningful at the outermost shell — operator tooling and the one
#: blessed helper (`repro.perf`) the CLI uses for progress lines — and
#: in the real-time engine, whose whole purpose is turning the host
#: clock into ``engine.now`` (docs/live.md).
_DEFAULT_WALLCLOCK_ALLOW = (
    "tools/",
    "src/repro/perf.py",
    "src/repro/engine/wallclock.py",
)

#: Directories never scanned.
_DEFAULT_EXCLUDE = (
    "__pycache__",
    ".git",
    "build",
    "dist",
)


@dataclasses.dataclass(frozen=True)
class LintConfig:
    """Effective linter settings for one run."""

    #: Project root all reported paths are relative to.
    root: pathlib.Path
    #: Baseline file path, relative to ``root``.
    baseline: str = "tools/lint_baseline.json"
    #: Default scan paths when the CLI gets none.
    paths: tuple[str, ...] = ("src",)
    #: Path prefixes/files where wall-clock calls are legitimate.
    wallclock_allow: tuple[str, ...] = _DEFAULT_WALLCLOCK_ALLOW
    #: Checker codes to skip entirely.
    ignore: tuple[str, ...] = ()
    #: Directory names excluded from recursive scans.
    exclude: tuple[str, ...] = _DEFAULT_EXCLUDE
    #: Inclusive ``@cacheable`` priority range (CACHE001) — the paper's
    #: "values of 1 or 2, which stand for low and high priority".
    cacheable_priority_min: int = 1
    cacheable_priority_max: int = 2

    def baseline_path(self) -> pathlib.Path:
        return self.root / self.baseline

    def allows_wallclock(self, relpath: str) -> bool:
        """True if ``relpath`` may read the wall clock (DET002)."""
        return path_matches(relpath, self.wallclock_allow)


def path_matches(relpath: str, patterns: _t.Iterable[str]) -> bool:
    """Prefix/exact matching for POSIX-relative paths.

    A pattern ending in ``/`` matches everything under that directory;
    otherwise it must equal the path or a trailing segment of it (so
    ``src/repro/perf.py`` matches when scanning from ``src`` too).
    """
    for pattern in patterns:
        if pattern.endswith("/"):
            if relpath.startswith(pattern) or f"/{pattern}" in f"/{relpath}":
                return True
        elif relpath == pattern or relpath.endswith(f"/{pattern}") \
                or pattern.endswith(f"/{relpath}"):
            return True
    return False


def find_project_root(start: pathlib.Path) -> pathlib.Path:
    """Nearest ancestor of ``start`` containing ``pyproject.toml``."""
    start = start.resolve()
    if start.is_file():
        start = start.parent
    for candidate in (start, *start.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return start


def load_config(start: pathlib.Path | str = ".") -> LintConfig:
    """Read ``[tool.repro-lint]`` from the nearest pyproject.toml."""
    root = find_project_root(pathlib.Path(start))
    pyproject = root / "pyproject.toml"
    table: dict[str, _t.Any] = {}
    if pyproject.is_file():
        with open(pyproject, "rb") as handle:
            table = tomllib.load(handle).get("tool", {}).get("repro-lint", {})

    known = {"baseline", "paths", "wallclock-allow", "ignore", "exclude",
             "cacheable-priority-range"}
    unknown = set(table) - known
    if unknown:
        raise ConfigError(
            f"unknown [tool.repro-lint] keys: {sorted(unknown)}")

    priority_range = table.get("cacheable-priority-range", [1, 2])
    if (not isinstance(priority_range, (list, tuple))
            or len(priority_range) != 2):
        raise ConfigError("cacheable-priority-range must be [min, max]")

    def _strings(key: str, default: tuple[str, ...]) -> tuple[str, ...]:
        value = table.get(key)
        if value is None:
            return default
        if not isinstance(value, list) \
                or not all(isinstance(item, str) for item in value):
            raise ConfigError(f"[tool.repro-lint] {key} must be a "
                              f"list of strings")
        return tuple(value)

    return LintConfig(
        root=root,
        baseline=str(table.get("baseline", "tools/lint_baseline.json")),
        paths=_strings("paths", ("src",)),
        wallclock_allow=_strings("wallclock-allow",
                                 _DEFAULT_WALLCLOCK_ALLOW),
        ignore=_strings("ignore", ()),
        exclude=_strings("exclude", _DEFAULT_EXCLUDE),
        cacheable_priority_min=int(priority_range[0]),
        cacheable_priority_max=int(priority_range[1]),
    )
