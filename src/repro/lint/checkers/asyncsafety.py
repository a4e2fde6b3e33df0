"""Event-loop safety checkers: ASYNC101-ASYNC102.

The live stack (``docs/live.md``) serves every tier from one asyncio
loop.  A coroutine that makes a blocking call stalls every exchange in
flight for the call's full duration (ASYNC101).  A coroutine called
without ``await`` never runs its body, and a ``create_task`` handle
nobody keeps can be garbage-collected mid-flight, because the loop
holds tasks only weakly (ASYNC102).  Both hazards sit in the statement
that commits them, so both rules read one file at a time.
"""

from __future__ import annotations

import ast
import typing as _t

from repro.lint.asthelpers import ImportMap, iter_own_body
from repro.lint.checkers.simsafety import blocking_call
from repro.lint.findings import Finding
from repro.lint.registry import Checker, ModuleUnderLint, register

__all__ = ["BlockingInCoroutine", "DroppedCoroutine"]

#: Task-spawn APIs whose result is the only strong task reference.
_TASK_SPAWN_PATHS = {"asyncio.create_task", "asyncio.ensure_future"}
_TASK_SPAWN_ATTRS = {"create_task", "ensure_future"}

#: Receiver names treated as an asyncio event loop handle.
_LOOP_NAMES = {"loop", "_loop"}


@register
class BlockingInCoroutine(Checker):
    """ASYNC101: a blocking call written directly inside an ``async def``.

    Reads SIM001's table (``BLOCKING_CALLS``/``BLOCKING_BUILTINS``).  A
    synchronous helper that blocks is not a finding even when a
    coroutine calls it: the live stack's shutdown flush and its
    stall-injection hook block on purpose.
    """

    code = "ASYNC101"
    description = ("blocking call (time.sleep, socket, file IO, "
                   "subprocess, sync HTTP) written directly inside a "
                   "coroutine; the event loop stalls for its full "
                   "duration")

    def check(self, module: ModuleUnderLint) -> _t.Iterator[Finding]:
        imports = module.imports
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.AsyncFunctionDef):
                continue
            for inner in iter_own_body(node):
                if not isinstance(inner, ast.Call):
                    continue
                blocked = blocking_call(imports, inner)
                if blocked is not None:
                    yield module.finding(
                        self.code, inner,
                        f"{blocked} inside coroutine {node.name!r} "
                        f"stalls the event loop; use the async API or "
                        f"loop.run_in_executor(...)")


def _spawn_api(imports: ImportMap, func: ast.expr) -> str | None:
    """The task-spawn API ``func`` names, or ``None``."""
    path = imports.resolve(func)
    if path in _TASK_SPAWN_PATHS:
        return path
    if isinstance(func, ast.Attribute) and func.attr in _TASK_SPAWN_ATTRS:
        receiver = func.value
        tail = receiver.attr if isinstance(receiver, ast.Attribute) \
            else getattr(receiver, "id", None)
        if tail in _LOOP_NAMES:
            return f"{tail}.{func.attr}"
    return None


@register
class DroppedCoroutine(Checker):
    """ASYNC102: a coroutine or task handle is silently dropped.

    Two expression statements are flagged.  A bare call to an
    ``async def`` of the same module (``work()``, or ``self.work()``
    for an async method) builds the coroutine object and throws it
    away, so the body never runs.  A bare ``create_task``/
    ``ensure_future`` (through ``asyncio`` or a ``loop``/``_loop``
    receiver) runs, but nothing keeps the task alive.
    """

    code = "ASYNC102"
    description = ("coroutine called without await (the body never "
                   "runs), or create_task/ensure_future handle "
                   "dropped (the task can be garbage-collected "
                   "mid-flight)")

    def check(self, module: ModuleUnderLint) -> _t.Iterator[Finding]:
        imports = module.imports
        functions = {node.name for node in module.tree.body
                     if isinstance(node, ast.AsyncFunctionDef)}
        methods = {node.name for owner in ast.walk(module.tree)
                   if isinstance(owner, ast.ClassDef)
                   for node in owner.body
                   if isinstance(node, ast.AsyncFunctionDef)}
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Expr) \
                    or not isinstance(node.value, ast.Call):
                continue
            call = node.value
            func = call.func
            if (isinstance(func, ast.Name) and func.id in functions) \
                    or (isinstance(func, ast.Attribute)
                        and isinstance(func.value, ast.Name)
                        and func.value.id in ("self", "cls")
                        and func.attr in methods):
                name = ast.unparse(func)
                yield module.finding(
                    self.code, call,
                    f"{name}(...) is a coroutine but its result is "
                    f"discarded unawaited — the body never runs; "
                    f"await it, or drive it with asyncio.run(...)")
                continue
            api = _spawn_api(imports, func)
            if api is not None:
                yield module.finding(
                    self.code, call,
                    f"{api}(...) handle is dropped; the event loop "
                    f"holds tasks only weakly, so the task can be "
                    f"garbage-collected mid-flight — keep it in an "
                    f"owned set with a done-callback discard")
