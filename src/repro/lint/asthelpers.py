"""Shared AST utilities for checkers.

The central tool is :class:`ImportMap`, which resolves a ``Name`` /
``Attribute`` chain back to its canonical dotted path through whatever
aliases the module used (``import random as _random`` and
``from numpy import random as npr`` both resolve correctly).  Checkers
match on canonical paths, so they cannot be dodged by renaming imports.
"""

from __future__ import annotations

import ast
import typing as _t

__all__ = ["ImportMap", "literal_number",
           "iter_own_body", "call_keyword", "call_positional"]


class ImportMap:
    """Maps local names to the canonical dotted path they were bound to."""

    def __init__(self, tree: ast.Module) -> None:
        self._aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self._aliases[alias.asname] = alias.name
                    else:
                        # ``import a.b`` binds the top-level name ``a``.
                        top = alias.name.split(".", 1)[0]
                        self._aliases[top] = top
            elif isinstance(node, ast.ImportFrom) and node.module \
                    and node.level == 0:
                for alias in node.names:
                    local = alias.asname or alias.name
                    self._aliases[local] = f"{node.module}.{alias.name}"

    def resolve(self, node: ast.expr) -> str | None:
        """Canonical dotted path of a Name/Attribute chain, else ``None``."""
        parts: list[str] = []
        cursor: ast.expr = node
        while isinstance(cursor, ast.Attribute):
            parts.append(cursor.attr)
            cursor = cursor.value
        if not isinstance(cursor, ast.Name):
            return None
        parts.append(cursor.id)
        parts.reverse()
        base = self._aliases.get(parts[0])
        if base is not None:
            parts[0:1] = base.split(".")
        return ".".join(parts)


def literal_number(node: ast.expr) -> int | float | None:
    """The numeric value of a literal, handling unary minus; else ``None``."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = literal_number(node.operand)
        return None if inner is None else -inner
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)) \
            and not isinstance(node.value, bool):
        return node.value
    return None


def iter_own_body(func: ast.FunctionDef | ast.AsyncFunctionDef,
                  ) -> _t.Iterator[ast.AST]:
    """Walk a function's statements without descending into nested defs.

    Lambdas are considered part of the enclosing function (they cannot
    ``yield``), but nested ``def``/``class`` bodies belong to someone
    else's scope.
    """
    stack: list[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def call_keyword(call: ast.Call, name: str) -> ast.expr | None:
    """The value of keyword argument ``name``, if present."""
    for keyword in call.keywords:
        if keyword.arg == name:
            return keyword.value
    return None


def call_positional(call: ast.Call, index: int) -> ast.expr | None:
    """The ``index``-th positional argument, if present (no starargs)."""
    if index < len(call.args) and not any(
            isinstance(arg, ast.Starred) for arg in call.args[:index + 1]):
        return call.args[index]
    return None
