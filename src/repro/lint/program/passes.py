"""The registered whole-program checkers.

DET101/DET102/SIM101/TEL002 consume the shared taint fixpoint
(:mod:`repro.lint.program.taint`) and the race analysis
(:mod:`repro.lint.program.races`); PERF101/PERF102 consume the loop
facts the extractor records, scoped to the *hot set* — detected
simulation processes plus the ``perf-hot-paths`` prefixes from
pyproject.  The expensive analyses run once per :class:`Program`
regardless of how many passes ask for them.  Findings are anchored at
the *source* (where the fix belongs) and carry the full source→sink
trace so a reader can follow the value across files without re-deriving
the call graph.
"""

from __future__ import annotations

import typing as _t

from repro.lint.config import LintConfig
from repro.lint.findings import Finding, TraceStep
from repro.lint.program import asyncsafety  # noqa: F401 - registers ASYNC/ENG
from repro.lint.program.model import Program
from repro.lint.program.races import find_races
from repro.lint.program.taint import SinkHit, taint_result
from repro.lint.registry import ProgramChecker, register_program

__all__ = ["DeterminismTaint", "OrderTaint", "SimRace",
           "SpanScopeLeak", "HotLoopClosure",
           "HotLoopAttributeReload"]


def _sink_location(program: Program, hit: SinkHit) -> str:
    function = program.functions[hit.function]
    return f"{function.path}:{hit.sink.line}"


@register_program
class DeterminismTaint(ProgramChecker):
    """DET101: RNG / clock / entropy taint reaching a sim-visible sink.

    The per-file rules (DET001/DET002) flag the *construction* of a
    nondeterministic value; this pass follows the value itself — through
    assignments, returns, and call edges — and fires only when it
    actually lands in event scheduling, a PACM utility computation, or a
    telemetry sample.  The one sanctioned flow is host profiling:
    wall-clock values born in a ``wallclock-allow`` file may feed
    telemetry samples (that is what ``repro.perf`` / the profiling hook
    exist for), but never the simulation or PACM math.
    """

    code = "DET101"
    description = ("nondeterministic value (unseeded RNG, wall clock, "
                   "OS entropy) flows into a sim-visible sink "
                   "(event scheduling, PACM utility, telemetry)")

    _SOURCE_KINDS = frozenset({"rng", "clock", "entropy"})
    _SINK_KINDS = frozenset({"sim", "telemetry", "pacm"})

    def check_program(self, program: Program,
                      config: LintConfig) -> _t.Iterator[Finding]:
        for hit in taint_result(program).hits:
            kind, path, line, col, detail = hit.token
            if kind not in self._SOURCE_KINDS:
                continue
            if hit.sink.kind not in self._SINK_KINDS:
                continue
            if kind == "clock" and hit.sink.kind == "telemetry" \
                    and config.allows_wallclock(path):
                continue  # the blessed host-profiling path
            if kind == "clock" and config.allows_engine_wallclock(path):
                # The wall-clock engine's whole job is feeding host time
                # into event scheduling and span stamps (docs/live.md).
                continue
            yield Finding(
                path=path, line=line, col=col, code=self.code,
                message=(f"nondeterministic value ({detail}) reaches "
                         f"{hit.sink.detail} at "
                         f"{_sink_location(program, hit)}; thread a "
                         f"seeded stream or sim.now-derived value "
                         f"instead"),
                trace=hit.trace)


@register_program
class OrderTaint(ProgramChecker):
    """DET102: iteration order escaping across a function boundary.

    DET003 catches ``min(d.keys())`` inside one function; it is blind
    the moment the unordered value is returned or passed along.  This
    pass follows order taint across call edges and fires when it
    reaches an ordering-sensitive sink (heap push, serialization,
    min/max, ``str.join``) or event scheduling in *another* function —
    same-function flows are left to DET003 so each defect has exactly
    one code.
    """

    code = "DET102"
    description = ("dict/set iteration order crosses a function "
                   "boundary and feeds an ordering-sensitive or "
                   "sim-visible sink without sorted()")

    _SINK_KINDS = frozenset({"order", "sim"})

    def check_program(self, program: Program,
                      config: LintConfig) -> _t.Iterator[Finding]:
        for hit in taint_result(program).hits:
            kind, path, line, col, detail = hit.token
            if kind != "order" or hit.sink.kind not in self._SINK_KINDS:
                continue
            if len(hit.trace) < 3:
                continue  # same-function flow: DET003 territory
            yield Finding(
                path=path, line=line, col=col, code=self.code,
                message=(f"iteration order of a {detail} escapes this "
                         f"function and reaches {hit.sink.detail} at "
                         f"{_sink_location(program, hit)}; wrap it in "
                         f"sorted() before it crosses the boundary"),
                trace=hit.trace)


@register_program
class SimRace(ProgramChecker):
    """SIM101: one attribute, several process generators, no lock.

    See :mod:`repro.lint.program.races` for the model.  The finding is
    anchored at the first write site and its trace lists every writer,
    so the report shows both halves of the race, not just one.
    """

    code = "SIM101"
    description = ("attribute written by two or more simulation "
                   "process generators with no resource acquisition "
                   "serializing the writes")

    def check_program(self, program: Program,
                      config: LintConfig) -> _t.Iterator[Finding]:
        for race in find_races(program):
            function, write = race.anchor()
            path = program.functions[function].path
            names = ", ".join(sorted({fn for fn, _w in race.writers}))
            yield Finding(
                path=path, line=write.line, col=write.col,
                code=self.code,
                message=(f"self.{race.attr} is written by "
                         f"{len({fn for fn, _w in race.writers})} "
                         f"process generators ({names}) with no "
                         f"resource acquisition; the final value "
                         f"depends on scheduler interleaving — guard "
                         f"the writes with a Resource or funnel them "
                         f"through one owner process"),
                trace=race.trace(program))


@register_program
class SpanScopeLeak(ProgramChecker):
    """TEL002: a telemetry span scope started outside a ``with``.

    ``Telemetry.span(...)`` hands back a context manager; a scope that
    is never entered is never finished, so the span silently vanishes
    from the log (and its ``started`` count drifts from the finished
    count).  The extraction layer records every ``<receiver>.span(...)``
    site with how its result is consumed; this pass keeps the sites
    whose receiver looks telemetry-like (``span-receiver-hints`` in
    pyproject — filtering happens here, not at extraction, so summaries
    stay config-independent and cacheable) and flags:

    * a scope that is neither entered with ``with`` nor returned, and
    * a call to a *factory* — a function whose return value originates
      from a span start — whose result is likewise neither entered nor
      returned (computed as a fixpoint over call edges, so factories
      wrapping factories still resolve).
    """

    code = "TEL002"
    description = ("telemetry span scope started via the context-"
                   "manager API but never entered with 'with' "
                   "(the span is never finished or recorded)")

    def check_program(self, program: Program,
                      config: LintConfig) -> _t.Iterator[Finding]:
        hints = tuple(hint.lower()
                      for hint in config.span_receiver_hints)

        def is_span_receiver(receiver: str) -> bool:
            lowered = receiver.lower()
            return any(hint in lowered for hint in hints)

        factories = self._span_factories(program, is_span_receiver)
        for name in sorted(program.functions):
            function = program.functions[name]
            for record in function.span_starts:
                if record.usage == "leaked" \
                        and is_span_receiver(record.receiver):
                    yield Finding(
                        path=function.path, line=record.line,
                        col=record.col, code=self.code,
                        message=(f"span scope from "
                                 f"{record.receiver}.span(...) is "
                                 f"never entered; wrap it in "
                                 f"'with {record.receiver}"
                                 f".span(...):' so the span is "
                                 f"finished and recorded"))
            returned = {index for origin, dest in function.flows
                        if dest == ("return",) and origin[0] == "call"
                        for index in (origin[1],)}
            entered = set(function.entered_calls)
            for index, callee in program.call_edges.get(name, ()):
                if callee not in factories:
                    continue
                if index in entered or index in returned:
                    continue
                call = function.calls[index]
                factory = program.functions[callee]
                yield Finding(
                    path=function.path, line=call.line, col=call.col,
                    code=self.code,
                    message=(f"{call.name}(...) returns a telemetry "
                             f"span scope that is never entered; use "
                             f"'with {call.name}(...):' (factory "
                             f"defined at {factory.path}:"
                             f"{factory.line})"),
                    trace=(TraceStep(factory.path, factory.line,
                                     f"{callee} returns a span "
                                     f"scope"),
                           TraceStep(function.path, call.line,
                                     "result is never entered with "
                                     "'with'")))

    @staticmethod
    def _span_factories(program: Program,
                        is_span_receiver: _t.Callable[[str], bool],
                        ) -> set[str]:
        """Functions whose return value originates from a span start."""
        factories: set[str] = set()
        for name in sorted(program.functions):
            function = program.functions[name]
            if any(record.usage == "returned"
                   and is_span_receiver(record.receiver)
                   for record in function.span_starts):
                factories.add(name)
        # Propagate through return-of-call chains to a fixpoint.
        changed = True
        while changed:
            changed = False
            for name in sorted(program.functions):
                if name in factories:
                    continue
                function = program.functions[name]
                returned_calls = {
                    origin[1] for origin, dest in function.flows
                    if dest == ("return",) and origin[0] == "call"}
                for index, callee in program.call_edges.get(name, ()):
                    if index in returned_calls and callee in factories:
                        factories.add(name)
                        changed = True
                        break
        return factories


def _hot_functions(program: Program,
                   config: LintConfig) -> set[str]:
    """Simulation processes plus the configured hot-path prefixes."""
    hot = set(program.process_generators())
    prefixes = tuple(config.perf_hot_paths)
    if prefixes:
        hot.update(name for name in program.functions
                   if name.startswith(prefixes))
    return hot


@register_program
class HotLoopClosure(ProgramChecker):
    """PERF101: a closure built on every iteration of a hot loop.

    A ``lambda`` or nested ``def`` inside the event loop or a process
    generator allocates a fresh function object per iteration — pure
    overhead when the closure could be hoisted.  Comprehensions are
    deliberately not flagged: building a collection per iteration is
    usually the loop's actual job.
    """

    code = "PERF101"
    description = ("lambda/nested def constructed on every iteration "
                   "of a hot-path loop (simulation process or "
                   "perf-hot-paths function)")

    def check_program(self, program: Program,
                      config: LintConfig) -> _t.Iterator[Finding]:
        for name in sorted(_hot_functions(program, config)):
            function = program.functions[name]
            for record in function.loop_allocs:
                yield Finding(
                    path=function.path, line=record.line,
                    col=record.col, code=self.code,
                    message=(f"{record.desc} is constructed on every "
                             f"iteration of a loop in hot path {name}; "
                             f"hoist it out of the loop"))


@register_program
class HotLoopSpan(ProgramChecker):
    """TEL003: a telemetry span opened on every turn of a hot loop.

    A ``with telemetry.span(...)`` inside a loop of a simulation
    process (or a configured hot path) mints one trace per iteration
    straight into the span ring, bypassing the tail sampler's
    root-finish decision: the sampler only governs traces whose roots
    are opened by the instrumented components it is attached to, and a
    driver loop stamping its own request spans floods the flight
    recorder no matter how the sampler is configured.  Open request
    spans in the instrumented client/AP component instead, or
    allow-list a genuinely per-iteration driver under
    ``[tool.repro-lint] span-loop-allow``.
    """

    code = "TEL003"
    description = ("telemetry span opened on every iteration of a "
                   "hot-path loop (simulation process or perf-hot-"
                   "paths function), bypassing tail-based sampling")

    def check_program(self, program: Program,
                      config: LintConfig) -> _t.Iterator[Finding]:
        hints = tuple(hint.lower()
                      for hint in config.span_receiver_hints)
        allowed = tuple(config.span_loop_allow)
        for name in sorted(_hot_functions(program, config)):
            if allowed and name.startswith(allowed):
                continue
            function = program.functions[name]
            for record in function.span_starts:
                if not record.loop_line:
                    continue
                lowered = record.receiver.lower()
                if not any(hint in lowered for hint in hints):
                    continue
                yield Finding(
                    path=function.path, line=record.line,
                    col=record.col, code=self.code,
                    message=(f"{record.receiver}.span(...) is opened "
                             f"on every iteration of the loop at line "
                             f"{record.loop_line} in hot path {name}, "
                             f"bypassing the tail sampler; open "
                             f"request spans in the instrumented "
                             f"component, or allow-list this driver "
                             f"under [tool.repro-lint] "
                             f"span-loop-allow"))


@register_program
class HotLoopAttributeReload(ProgramChecker):
    """PERF102: the same attribute chain loaded repeatedly in a hot loop.

    Fires only when a chain rooted at a loop-invariant name is loaded
    at two or more distinct sites inside one loop — a single load per
    iteration is normal code, and chains whose root is rebound inside
    the loop are excluded at extraction because hoisting them would be
    wrong.  The fix is one local binding above the loop.
    """

    code = "PERF102"
    description = ("attribute chain rooted at a loop-invariant name "
                   "loaded at 2+ sites inside one hot-path loop; bind "
                   "it to a local before the loop")

    def check_program(self, program: Program,
                      config: LintConfig) -> _t.Iterator[Finding]:
        for name in sorted(_hot_functions(program, config)):
            function = program.functions[name]
            grouped: dict[tuple[int, str], list[_t.Any]] = {}
            for record in function.loop_loads:
                grouped.setdefault(
                    (record.loop_line, record.chain), []).append(record)
            for (loop_line, chain), records in sorted(grouped.items()):
                if len(records) < 2:
                    continue
                anchor = min(records,
                             key=lambda rec: (rec.line, rec.col))
                yield Finding(
                    path=function.path, line=anchor.line,
                    col=anchor.col, code=self.code,
                    message=(f"'{chain}' is loaded at {len(records)} "
                             f"sites inside the loop at line "
                             f"{loop_line} in hot path {name}; bind "
                             f"it to a local before the loop"))
