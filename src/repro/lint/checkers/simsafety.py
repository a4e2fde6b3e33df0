"""Simulation-safety checkers: SIM001-SIM002.

The discrete-event kernel (``repro.sim.kernel``) advances virtual time
instantaneously between events; a real ``time.sleep`` or socket read
inside a process generator stalls the whole simulation for *wall* time
without advancing *simulated* time — the classic SimPy footgun (SIM001).
Because simulated timestamps are floats accumulated through arithmetic,
exact ``==`` comparisons against ``sim.now`` are one rounding error away
from a heisenbug (SIM002).
"""

from __future__ import annotations

import ast
import typing as _t

from repro.lint.asthelpers import ImportMap, iter_own_body
from repro.lint.findings import Finding
from repro.lint.registry import Checker, ModuleUnderLint, register

__all__ = ["BLOCKING_BUILTINS", "BLOCKING_CALLS", "EVENT_CLASSES",
           "EVENT_FACTORIES", "SIM_NAMES", "BlockingCallInProcess",
           "SimTimeEquality", "blocking_call"]

#: The engine vocabulary.  Method names of the ``Scheduler`` event
#: factories — a generator yielding a call to one of these is a
#: simulation process.
EVENT_FACTORIES = {"timeout", "event", "process", "all_of"}

#: Event classes yielded or instantiated directly.
EVENT_CLASSES = {"Event", "Timeout", "Process", "AllOf"}

#: Parameter/attribute names that indicate a simulator handle.
SIM_NAMES = {"sim", "_sim", "env", "_env"}

#: Call targets that block the hosting thread, shared by SIM001 and
#: ASYNC101: canonical paths, or families when ending with a dot, each
#: mapped to the blocking kind the findings name.
BLOCKING_CALLS = {
    "time.sleep": "sleep",
    "os.system": "subprocess",
    "os.popen": "subprocess",
    "os.wait": "subprocess",
    "os.waitpid": "subprocess",
    "subprocess.": "subprocess",
    "socket.": "socket",
    "requests.": "http",
    "urllib.request.": "http",
    "http.client.": "http",
}

#: Builtins that block on the filesystem or console → their kind.
BLOCKING_BUILTINS = {"open": "file-io", "input": "console-io"}


def blocking_call(imports: ImportMap, call: ast.Call) -> str | None:
    """``"blocking <kind> call <target>()"`` if ``call`` blocks the
    hosting thread (:data:`BLOCKING_CALLS`, :data:`BLOCKING_BUILTINS`),
    else ``None``."""
    func = call.func
    if isinstance(func, ast.Name) and func.id in BLOCKING_BUILTINS:
        return f"blocking {BLOCKING_BUILTINS[func.id]} call {func.id}()"
    path = imports.resolve(func)
    if path is None:
        return None
    for target, kind in BLOCKING_CALLS.items():
        if path == target or (target.endswith(".")
                              and path.startswith(target)):
            return f"blocking {kind} call {path}()"
    return None


def _is_process_generator(func: ast.FunctionDef | ast.AsyncFunctionDef,
                          ) -> bool:
    """Heuristic: does ``func`` look like a simulation process?

    A process is a generator (has ``yield``) that either yields a kernel
    event — ``sim.timeout(...)``, ``Timeout(...)`` — or carries a
    simulator handle (a parameter/attribute named ``sim``/``env``).
    """
    has_yield = False
    yields_event = False
    for node in iter_own_body(func):
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            has_yield = True
            value = node.value
            if isinstance(value, ast.Call):
                target = value.func
                if isinstance(target, ast.Attribute) \
                        and target.attr in EVENT_FACTORIES:
                    yields_event = True
                elif isinstance(target, ast.Name) \
                        and target.id in EVENT_CLASSES:
                    yields_event = True
    if not has_yield:
        return False
    if yields_event:
        return True
    parameters = {arg.arg for arg in (*func.args.args,
                                      *func.args.posonlyargs,
                                      *func.args.kwonlyargs)}
    if parameters & SIM_NAMES:
        return True
    for node in iter_own_body(func):
        if isinstance(node, ast.Attribute) and node.attr in SIM_NAMES:
            return True
        if isinstance(node, ast.Name) and node.id in SIM_NAMES:
            return True
    return False


@register
class BlockingCallInProcess(Checker):
    """SIM001: blocking call inside a simulation process generator.

    Flags every :data:`BLOCKING_CALLS` target (``time.sleep``,
    socket/subprocess/HTTP calls, ``os.wait``) and the builtins ``open``
    and ``input`` inside generators that yield kernel events.  Simulated
    delay is ``yield sim.timeout(...)``; real I/O belongs outside the
    event loop (load traces before the run, write results after).
    """

    code = "SIM001"
    description = ("blocking call (time.sleep, socket, subprocess, "
                   "open, ...) inside a simulation process generator")

    def check(self, module: ModuleUnderLint) -> _t.Iterator[Finding]:
        imports = module.imports
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not _is_process_generator(node):
                continue
            for inner in iter_own_body(node):
                if not isinstance(inner, ast.Call):
                    continue
                blocked = blocking_call(imports, inner)
                if blocked is not None:
                    yield module.finding(
                        self.code, inner,
                        f"{blocked} inside simulation process "
                        f"{node.name!r}; use `yield sim.timeout(...)` for "
                        f"delay and do real I/O outside the event loop")


@register
class SimTimeEquality(Checker):
    """SIM002: float ``==``/``!=`` against simulated time.

    ``sim.now`` values are floats produced by summing delays; two paths
    to "the same" instant routinely differ in the last ulp.  Compare
    with a tolerance (``math.isclose``, ``abs(a - b) < EPS``) or with
    ordering (``<=``), or keep times as integer ticks.
    """

    code = "SIM002"
    description = ("exact float ==/!= comparison against simulated time "
                   "(sim.now)")

    def check(self, module: ModuleUnderLint) -> _t.Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            sides: list[ast.expr] = [node.left, *node.comparators]
            for index, operator in enumerate(node.ops):
                if not isinstance(operator, (ast.Eq, ast.NotEq)):
                    continue
                pair = (sides[index], sides[index + 1])
                if any(self._is_sim_time(side) for side in pair):
                    yield module.finding(
                        self.code, node,
                        "exact ==/!= against simulated time; float "
                        "timestamps accumulate rounding error — use "
                        "math.isclose / a tolerance, or ordering "
                        "comparisons")
                    break

    @staticmethod
    def _is_sim_time(node: ast.expr) -> bool:
        return isinstance(node, ast.Attribute) and node.attr in ("now",
                                                                 "_now")
