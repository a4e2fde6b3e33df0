"""Data model for the whole-program analysis.

Every per-file fact the inter-procedural passes consume lives in a
:class:`ModuleSummary` built from plain ints/strings/tuples; the passes
never see an AST.

Taint flows are encoded as ``(origin, destination)`` pairs over small
tagged tuples:

=============== ======================================================
``("source", i)``   value of the ``i``-th recorded nondeterminism source
``("param", i)``    value of the ``i``-th parameter
``("call", i)``     return value of the ``i``-th recorded call
``("return",)``     the function's return value
``("sink", i)``     argument position of the ``i``-th recorded sink
``("arg", i, j)``   argument ``j`` of the ``i``-th recorded call
=============== ======================================================
"""

from __future__ import annotations

import dataclasses
import typing as _t

__all__ = ["SourceRec", "SinkRec", "CallRec", "WriteRec",
           "SpanStartRec", "AllocRec", "LoadRec", "BlockRec",
           "TaskRec", "LockRec", "FunctionSummary", "ModuleSummary",
           "Program", "Origin", "Dest", "Flow", "MODULE_BODY"]

#: Pseudo-function name holding a module's top-level statements.
MODULE_BODY = "<module>"

Origin = _t.Tuple[str, int]
Dest = _t.Tuple[_t.Union[str, int], ...]
Flow = _t.Tuple[Origin, Dest]


@dataclasses.dataclass(frozen=True, order=True)
class SourceRec:
    """One nondeterminism source occurrence inside a function."""

    #: ``"rng"`` | ``"clock"`` | ``"entropy"`` | ``"order"``.
    kind: str
    line: int
    col: int
    #: Human-readable description, e.g. ``"random.Random() without a seed"``.
    detail: str


@dataclasses.dataclass(frozen=True, order=True)
class SinkRec:
    """One sim-visible (or ordering-sensitive) sink occurrence."""

    #: ``"sim"`` | ``"telemetry"`` | ``"pacm"`` | ``"order"``.
    kind: str
    line: int
    col: int
    detail: str


@dataclasses.dataclass(frozen=True, order=True)
class CallRec:
    """One call site whose callee could (maybe) be resolved.

    ``ref`` is the canonical dotted path as seen from the calling module
    (``"repro.sim.randomness.RandomStreams"``), or ``""`` when the
    callee is not a resolvable name.  The build step maps refs onto
    project functions; unresolved refs simply contribute no edge.
    """

    ref: str
    line: int
    col: int
    #: Display name for traces, e.g. ``"jitter"``.
    name: str


@dataclasses.dataclass(frozen=True, order=True)
class WriteRec:
    """One attribute write inside a function body.

    ``scope`` is ``"self"`` for ``self.attr = ...`` writes (the only
    scope the race detector currently correlates across functions).
    ``after_acquire`` is True when a ``yield <resource>.request()`` /
    ``yield <lock>.acquire()`` precedes the write in statement order —
    the write is then considered serialized by that resource.
    """

    scope: str
    attr: str
    line: int
    col: int
    after_acquire: bool


@dataclasses.dataclass(frozen=True, order=True)
class SpanStartRec:
    """One ``<receiver>.span(...)`` context-manager-API call site.

    ``receiver`` is the last identifier of the receiver chain
    (``self.telemetry.span(...)`` → ``"telemetry"``); the TEL002 pass
    decides whether it is telemetry-like via the configurable
    ``span-receiver-hints``, so summaries stay config-independent.
    ``usage`` records how the produced scope is consumed
    locally: ``"with"`` (entered), ``"returned"`` (responsibility hands
    to the caller — a factory), or ``"leaked"`` (neither).
    ``loop_line`` is the innermost enclosing loop statement's line, or
    0 when the start is not inside a loop (TEL003).
    """

    receiver: str
    line: int
    col: int
    usage: str
    loop_line: int = 0


@dataclasses.dataclass(frozen=True, order=True)
class AllocRec:
    """One per-iteration closure construction inside a loop (PERF101)."""

    #: ``"lambda"`` or ``"def <name>"``.
    desc: str
    line: int
    col: int


@dataclasses.dataclass(frozen=True, order=True)
class LoadRec:
    """One attribute-chain load inside a loop body (PERF102 input).

    ``chain`` is the dotted spelling (``"self._sim.timeout"``) whose
    root identifier is *not* rebound anywhere in the loop, so hoisting
    the load to a pre-loop local is semantics-preserving.
    ``loop_line`` keys the innermost enclosing loop statement;
    ``in_test`` marks loads inside a ``while`` test expression.
    """

    chain: str
    loop_line: int
    line: int
    col: int
    in_test: bool


@dataclasses.dataclass(frozen=True, order=True)
class BlockRec:
    """One loop-blocking call site (ASYNC101 input).

    ``kind`` classifies the blocking family: ``"sleep"``
    (``time.sleep``), ``"socket"``, ``"subprocess"``, ``"file-io"``
    (builtin ``open``/``input``), or ``"http"`` (requests/urllib/
    http.client) — see ``repro.lint.checkers.simsafety.BLOCKING_CALLS``.
    Whether the site is actually a defect depends on reachability from
    a coroutine, which only the whole-program pass can decide.
    """

    kind: str
    line: int
    col: int
    detail: str


@dataclasses.dataclass(frozen=True, order=True)
class TaskRec:
    """One task-spawn whose handle was dropped (ASYNC102 input).

    Records an ``asyncio.create_task(...)`` / ``ensure_future(...)``
    call standing alone as an expression statement — the loop holds
    only weak task references, so the spawned task is eligible for GC
    mid-flight.  ``end_line``/``end_col`` delimit the statement so the
    autofix can append the strong-reference anchoring; ``indent`` is
    the statement's column offset (the indentation to reuse).
    """

    api: str
    line: int
    col: int
    end_line: int
    end_col: int
    indent: int


@dataclasses.dataclass(frozen=True, order=True)
class LockRec:
    """One *synchronous* lock held across an ``await`` (ASYNC103 input).

    A plain ``with <lock>:`` whose body awaits parks the whole event
    loop behind the lock; only ``async with asyncio.Lock()`` yields
    while blocked.
    """

    line: int
    col: int
    detail: str


@dataclasses.dataclass
class FunctionSummary:
    """Everything the global passes need to know about one function."""

    #: Fully qualified name, ``module.Class.func`` or ``module.func``;
    #: the module body is ``module.<module>``.
    name: str
    path: str
    line: int
    params: tuple[str, ...] = ()
    is_generator: bool = False
    yields_event: bool = False
    has_sim_handle: bool = False
    sources: tuple[SourceRec, ...] = ()
    sinks: tuple[SinkRec, ...] = ()
    calls: tuple[CallRec, ...] = ()
    flows: tuple[Flow, ...] = ()
    writes: tuple[WriteRec, ...] = ()
    #: Dotted refs of generator functions this function registers as
    #: simulation processes (``sim.process(fn(...))``, runner strings).
    process_refs: tuple[tuple[str, int], ...] = ()
    #: ``.span(...)`` context-manager starts seen in this body (TEL002).
    span_starts: tuple[SpanStartRec, ...] = ()
    #: Indices into ``calls`` whose results were entered via ``with``.
    entered_calls: tuple[int, ...] = ()
    #: Per-iteration closure constructions inside loops (PERF101).
    loop_allocs: tuple[AllocRec, ...] = ()
    #: Loop-invariant-rooted attribute loads inside loops (PERF102).
    loop_loads: tuple[LoadRec, ...] = ()
    #: ``async def`` (includes async generators).
    is_coroutine: bool = False
    #: Indices into ``calls`` that sit directly under an ``await``.
    awaited_calls: tuple[int, ...] = ()
    #: Indices into ``calls`` whose result is a whole discarded
    #: expression statement (``foo()`` on a line of its own).
    discarded_calls: tuple[int, ...] = ()
    #: Loop-blocking call sites (ASYNC101).
    blocking_calls: tuple[BlockRec, ...] = ()
    #: Dropped ``create_task``/``ensure_future`` handles (ASYNC102).
    task_drops: tuple[TaskRec, ...] = ()
    #: Sync locks held across an ``await`` (ASYNC103).
    lock_awaits: tuple[LockRec, ...] = ()


@dataclasses.dataclass
class ModuleSummary:
    """Per-file extraction result."""

    #: Repo-relative POSIX path.
    path: str
    #: Dotted module name derived from the path (``repro.sim.kernel``).
    module: str
    #: Module-level name → canonical dotted path (imports + local defs);
    #: this is what resolves re-exports across modules.
    exports: dict[str, str] = dataclasses.field(default_factory=dict)
    functions: list[FunctionSummary] = dataclasses.field(
        default_factory=list)
    #: First line (1-based) where a module-level statement may be
    #: inserted: after the docstring and any ``from __future__``
    #: imports.  The ASYNC102 autofix anchors its module-level
    #: strong-reference set here.
    head_line: int = 1


class Program:
    """The linked whole-program view handed to program checkers."""

    def __init__(self, modules: _t.Sequence[ModuleSummary]) -> None:
        #: Module summaries sorted by path (deterministic iteration).
        self.modules: list[ModuleSummary] = sorted(
            modules, key=lambda m: m.path)
        #: Qualified name → function summary.
        self.functions: dict[str, FunctionSummary] = {}
        #: Canonical ref → qualified function name (after re-exports).
        self._ref_targets: dict[str, str] = {}
        #: Caller qualname → sorted list of (call index, callee qualname).
        self.call_edges: dict[str, list[tuple[int, str]]] = {}
        #: Callee qualname → sorted list of (caller qualname, call index).
        self.callers: dict[str, list[tuple[str, int]]] = {}
        #: Scratch space for passes that share expensive results (the
        #: taint fixpoint runs once per program, not once per checker).
        self.analysis_cache: dict[str, _t.Any] = {}
        self._link()

    # ------------------------------------------------------------------
    # Linking
    # ------------------------------------------------------------------
    def _link(self) -> None:
        alias: dict[str, str] = {}
        for module in self.modules:
            for function in module.functions:
                self.functions[function.name] = function
            for name in sorted(module.exports):
                alias[f"{module.module}.{name}"] = module.exports[name]
        # Short-circuit alias chains (bounded: chains cannot be longer
        # than the number of aliases).
        for key in sorted(alias):
            target = alias[key]
            hops = 0
            while target in alias and hops <= len(alias):
                target = alias[target]
                hops += 1
            alias[key] = target
        self._alias = alias
        for module in self.modules:
            for function in module.functions:
                edges: list[tuple[int, str]] = []
                for index, call in enumerate(function.calls):
                    callee = self.resolve_ref(call.ref)
                    if callee is not None:
                        edges.append((index, callee))
                if edges:
                    self.call_edges[function.name] = edges
                    for index, callee in edges:
                        self.callers.setdefault(callee, []).append(
                            (function.name, index))
        for callee in self.callers:
            self.callers[callee].sort()

    def resolve_ref(self, ref: str) -> str | None:
        """Map a canonical dotted ref onto a project function name."""
        if not ref:
            return None
        seen = 0
        while ref in self._alias and seen <= len(self._alias):
            ref = self._alias[ref]
            seen += 1
        if ref in self.functions:
            return ref
        # A class ref stands for its constructor.
        if f"{ref}.__init__" in self.functions:
            return f"{ref}.__init__"
        return None

    # ------------------------------------------------------------------
    # Introspection (used by --stats and the tests)
    # ------------------------------------------------------------------
    def function_count(self) -> int:
        return len(self.functions)

    def edge_count(self) -> int:
        return sum(len(edges) for edges in self.call_edges.values())

    def process_generators(self) -> list[str]:
        """Qualified names of functions that are simulation processes.

        A function qualifies when it is a generator that yields kernel
        events or holds a simulator handle, or when any function
        registers it via ``sim.process(...)`` / a runner string.
        """
        registered: set[str] = set()
        for name in sorted(self.functions):
            for ref, _line in self.functions[name].process_refs:
                target = self.resolve_ref(ref)
                if target is not None:
                    registered.add(target)
        names: list[str] = []
        for name in sorted(self.functions):
            function = self.functions[name]
            if not function.is_generator:
                continue
            if function.yields_event or function.has_sim_handle \
                    or name in registered:
                names.append(name)
        return names
