"""Determinism checkers: DET001 (RNG), DET002 (wall clock), DET003 (order).

These enforce CONTRIBUTING.md's determinism rules: all randomness flows
through an explicitly seeded source, simulated code never reads the wall
clock, and nothing ordering-sensitive consumes raw ``dict``/``set``
iteration.  Each rule exists because its violation silently changes the
numbers in the paper's tables between runs.
"""

from __future__ import annotations

import ast
import dataclasses
import typing as _t

from repro.lint.asthelpers import ImportMap
from repro.lint.findings import Finding
from repro.lint.fixes import Edit, Fix
from repro.lint.registry import Checker, ModuleUnderLint, register

__all__ = ["UnseededRandom", "WallClock", "UnorderedIteration"]

#: ``numpy.random`` attributes that are fine *when seeded* (constructors
#: of the modern Generator API).  Called with no arguments they seed from
#: the OS and are flagged as unseeded.
_NUMPY_CONSTRUCTORS = {
    "default_rng", "RandomState", "SeedSequence", "Generator",
    "MT19937", "PCG64", "PCG64DXSM", "Philox", "SFC64",
}

#: OS-entropy calls (DET001): random by design, never reproducible.
_ENTROPY_CALLS = {
    "os.urandom", "os.getrandom",
    "uuid.uuid1", "uuid.uuid4",
    "secrets.token_bytes", "secrets.token_hex", "secrets.token_urlsafe",
    "secrets.randbelow", "secrets.choice", "secrets.randbits",
}

#: Canonical wall-clock entry points (DET002).
WALLCLOCK_CALLS = {
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}


def _seed_fix(node: ast.Call, what: str) -> Fix | None:
    """Insert a placeholder seed into an empty constructor call.

    Only offered when the call has no arguments at all — the insertion
    point right before the closing paren is then unambiguous.
    """
    if node.args or node.keywords:  # pragma: no cover - callers filter
        return None
    line = node.end_lineno or node.lineno
    col = (node.end_col_offset or 1) - 1
    return Fix(description=f"seed {what} explicitly (placeholder seed "
                           f"0; derive from RandomStreams if this RNG "
                           f"feeds the simulation)",
               edits=(Edit(line, col, line, col, "0"),))


def _sorted_wrap_fix(node: ast.expr, what: str) -> Fix:
    """Wrap ``node`` in ``sorted(...)``."""
    end_line = node.end_lineno or node.lineno
    end_col = node.end_col_offset or 0
    return Fix(description=f"wrap the {what} in sorted() so iteration "
                           f"order is part of the data",
               edits=(Edit(node.lineno, node.col_offset,
                           node.lineno, node.col_offset, "sorted("),
                      Edit(end_line, end_col, end_line, end_col, ")")))


@register
class UnseededRandom(Checker):
    """DET001: RNG without an explicit seed.

    Flags ``random.Random()`` with no arguments, every call through the
    module-level ``random.*`` API (its hidden global ``Random`` is
    process-wide mutable state), ``random.SystemRandom`` and the other
    OS-entropy calls (``os.urandom``, ``uuid.uuid4``, ``secrets.*``, ...),
    and the legacy ``numpy.random.*`` global API or unseeded Generator
    constructors.
    """

    code = "DET001"
    description = ("unseeded or implicitly seeded RNG "
                   "(random.Random(), module-level random.*, "
                   "numpy.random global API)")

    def check(self, module: ModuleUnderLint) -> _t.Iterator[Finding]:
        imports = module.imports
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            path = imports.resolve(node.func)
            if path is None:
                continue
            seeded = bool(node.args or node.keywords)
            if path in _ENTROPY_CALLS:
                yield module.finding(
                    self.code, node,
                    f"{path}() draws OS entropy and can never be "
                    f"reproduced; derive the value from a seeded "
                    f"random.Random")
            elif path == "random.Random":
                if not seeded:
                    yield dataclasses.replace(
                        module.finding(
                            self.code, node,
                            "random.Random() without a seed; pass an "
                            "explicit seed or derive one from "
                            "RandomStreams"),
                        fix=_seed_fix(node, "random.Random()"))
            elif path.startswith("random.SystemRandom"):
                yield module.finding(
                    self.code, node,
                    "random.SystemRandom draws OS entropy and can never "
                    "be reproduced; use a seeded random.Random")
            elif path.startswith("random."):
                function = path.split(".", 1)[1]
                yield module.finding(
                    self.code, node,
                    f"module-level random.{function}() uses the implicit "
                    f"global RNG; draw from a seeded random.Random or a "
                    f"RandomStreams substream instead")
            elif path.startswith("numpy.random."):
                attribute = path.split(".")[2]
                if attribute in _NUMPY_CONSTRUCTORS:
                    if not seeded:
                        yield dataclasses.replace(
                            module.finding(
                                self.code, node,
                                f"numpy.random.{attribute}() without a "
                                f"seed seeds from the OS; pass an "
                                f"explicit seed"),
                            fix=_seed_fix(
                                node, f"numpy.random.{attribute}()"))
                else:
                    yield module.finding(
                        self.code, node,
                        f"legacy numpy.random.{attribute}() uses numpy's "
                        f"global state; use a seeded "
                        f"numpy.random.default_rng(seed) Generator")


@register
class WallClock(Checker):
    """DET002: wall-clock reads outside the allowlist.

    Simulated components must take time from ``sim.now`` — mixing in
    host time makes latency results depend on machine load.  That
    includes the telemetry layer, whose spans and histograms clock off
    ``Simulator.now``.  Operator tooling (``tools/``, the
    ``repro.perf`` helper) and the real-time engine
    (``repro.engine.wallclock``) are allowlisted via
    ``[tool.repro-lint] wallclock-allow``.
    """

    code = "DET002"
    description = ("wall-clock call (time.time, datetime.now, ...) "
                   "outside the allowlist")

    def check(self, module: ModuleUnderLint) -> _t.Iterator[Finding]:
        if module.config.allows_wallclock(module.path):
            return
        imports = module.imports
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            path = imports.resolve(node.func)
            if path in WALLCLOCK_CALLS:
                yield module.finding(
                    self.code, node,
                    f"wall-clock call {path}(); simulated code must use "
                    f"sim.now, timing harnesses must use "
                    f"repro.perf.perf_timer()")


def _unordered_reason(node: ast.expr) -> str | None:
    """Why ``node`` iterates in hash/insertion order, or ``None``."""
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and not node.args \
                and func.attr in ("keys", "values", "items"):
            return f".{func.attr}() view"
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return f"{func.id}()"
    if isinstance(node, ast.Set):
        return "set literal"
    if isinstance(node, ast.SetComp):
        return "set comprehension"
    return None


def _is_sorted_call(node: ast.expr) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "sorted")


@register
class UnorderedIteration(Checker):
    """DET003: dict/set iteration feeding an ordering-sensitive sink.

    Three shapes are flagged when the iterable is a raw ``.keys()`` /
    ``.values()`` / ``.items()`` view, a set expression, or ``set()``
    call, and no ``sorted()`` wrapper intervenes:

    * ``min(...)`` / ``max(...)`` over it — ties resolve to whichever
      element iterates first;
    * a ``for`` loop over it whose body pushes onto a heap
      (``heapq.heappush`` / ``heapify``) — heap tie-break order becomes
      iteration order;
    * serialization of it (``json.dump``/``dumps``, ``str.join``) —
      byte output depends on iteration order.
    """

    code = "DET003"
    description = ("dict/set iteration order feeds an ordering-sensitive "
                   "sink (min/max, heap push, serialization) without "
                   "sorted()")

    def check(self, module: ModuleUnderLint) -> _t.Iterator[Finding]:
        imports = module.imports
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(module, imports, node)
            elif isinstance(node, ast.For):
                yield from self._check_loop(module, imports, node)

    def _check_call(self, module: ModuleUnderLint, imports: ImportMap,
                    node: ast.Call) -> _t.Iterator[Finding]:
        sink: str | None = None
        if isinstance(node.func, ast.Name) and node.func.id in ("min", "max"):
            sink = node.func.id
        elif isinstance(node.func, ast.Attribute) and node.func.attr == "join":
            sink = "str.join"
        else:
            path = imports.resolve(node.func)
            if path in ("json.dump", "json.dumps"):
                sink = path
        if sink is None:
            return
        for arg in node.args:
            reason = _unordered_reason(arg)
            if reason is not None and not _is_sorted_call(arg):
                yield dataclasses.replace(
                    module.finding(
                        self.code, node,
                        f"{sink}() consumes a {reason} whose iteration "
                        f"order is not part of the data; wrap it in "
                        f"sorted()"),
                    fix=_sorted_wrap_fix(arg, reason))

    def _check_loop(self, module: ModuleUnderLint, imports: ImportMap,
                    node: ast.For) -> _t.Iterator[Finding]:
        reason = _unordered_reason(node.iter)
        if reason is None:
            return
        for child in node.body:
            for inner in ast.walk(child):
                if not isinstance(inner, ast.Call):
                    continue
                path = imports.resolve(inner.func)
                if path in ("heapq.heappush", "heapq.heappushpop",
                            "heapq.heapify"):
                    yield dataclasses.replace(
                        module.finding(
                            self.code, node,
                            f"loop over a {reason} pushes onto a heap; "
                            f"heap tie-break order becomes dict/set "
                            f"iteration order — iterate over "
                            f"sorted(...) instead"),
                        fix=_sorted_wrap_fix(node.iter, reason))
                    return
