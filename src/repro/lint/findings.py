"""The :class:`Finding` record every checker emits.

A finding pins a checker code to an exact source location.  Findings are
value objects: they sort by location (so reports are stable regardless
of checker execution order) and reduce to a *baseline key* — the
``(path, code, line)`` triple used to match grandfathered findings in
the committed baseline file.

Findings may also carry a :class:`~repro.lint.fixes.Fix` — a set of
precise span rewrites ``python -m repro.lint --fix`` can apply.  The
fix is excluded from equality/ordering so two findings describing the
same defect dedupe even if their machine-applicable repairs differ.
"""

from __future__ import annotations

import dataclasses
import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lint.fixes import Fix

__all__ = ["Finding"]


@dataclasses.dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    ``path`` is stored repo-relative with POSIX separators so reports
    and baselines are portable across checkouts and operating systems.
    """

    path: str
    line: int
    col: int
    code: str
    message: str
    #: Machine-applicable repair, if the checker can offer one.
    fix: "Fix | None" = dataclasses.field(
        default=None, compare=False, hash=False)

    def baseline_key(self) -> tuple[str, str, int]:
        """The identity used for baseline matching (column-insensitive)."""
        return (self.path, self.code, self.line)

    def render(self) -> str:
        """``path:line:col: CODE message`` — the human/grep-able form."""
        return f"{self.path}:{self.line}:{self.col}: " \
               f"{self.code} {self.message}"

    def to_dict(self) -> dict[str, _t.Any]:
        """JSON-ready representation (``--format json``)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
        }
