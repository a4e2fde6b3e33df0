"""The checker registry.

Checkers are small classes with a ``code``, a one-line ``description``,
and a ``check(module)`` method yielding :class:`~repro.lint.findings.Finding`
objects.  They self-register at import time via the :func:`register`
decorator, so adding a new rule is: write the class, decorate it, list
its module in ``repro.lint.checkers`` — the CLI, the baseline machinery
and the suppression parser all pick it up with no further wiring.
"""

from __future__ import annotations

import ast
import functools
import typing as _t

from repro.lint.asthelpers import ImportMap
from repro.lint.findings import Finding
from repro.lint.suppressions import Suppressions, parse_suppressions

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lint.config import LintConfig

__all__ = ["Checker", "ModuleUnderLint", "register", "all_checkers"]


class ModuleUnderLint:
    """Everything a checker may inspect about one source file."""

    def __init__(self, path: str, source: str, tree: ast.Module,
                 config: "LintConfig") -> None:
        self.path = path          # repo-relative, POSIX separators
        self.source = source
        self.tree = tree
        self.config = config

    @functools.cached_property
    def imports(self) -> ImportMap:
        """The file's import aliases; one tree walk, shared by checkers."""
        return ImportMap(self.tree)

    @functools.cached_property
    def suppressions(self) -> Suppressions:
        """The file's ``# lint: disable=`` map; one tokenize per file."""
        return parse_suppressions(self.source)

    def finding(self, code: str, node: ast.AST, message: str) -> Finding:
        """Build a :class:`Finding` anchored at ``node``'s location."""
        return Finding(path=self.path,
                       line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0),
                       code=code, message=message)


class Checker:
    """Base class for all checkers; subclasses override :meth:`check`."""

    #: Unique rule identifier, e.g. ``"DET001"``.
    code: str = ""
    #: One-line summary shown by ``--list-checkers`` and the docs.
    description: str = ""

    def check(self, module: ModuleUnderLint) -> _t.Iterator[Finding]:
        raise NotImplementedError  # pragma: no cover - abstract

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.code}>"


_REGISTRY: dict[str, type[Checker]] = {}


def register(cls: type[Checker]) -> type[Checker]:
    """Class decorator adding ``cls`` to the global checker registry."""
    if not cls.code:
        raise ValueError(f"checker {cls.__name__} has no code")
    if cls.code in _REGISTRY and _REGISTRY[cls.code] is not cls:
        raise ValueError(f"duplicate checker code {cls.code!r}")
    _REGISTRY[cls.code] = cls
    return cls


def all_checkers() -> list[type[Checker]]:
    """Every registered checker class, sorted by code."""
    import repro.lint.checkers  # noqa: F401 - triggers registration

    return [_REGISTRY[code] for code in sorted(_REGISTRY)]
