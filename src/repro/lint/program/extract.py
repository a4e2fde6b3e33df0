"""Per-file extraction: one parsed module → one :class:`ModuleSummary`.

This is the only stage of the whole-program layer that touches an AST
(the tree the engine already parsed for the per-file checkers);
everything downstream (the call-graph link, the taint fixpoint, the race
detector) consumes the summary.

The local dataflow is a forward approximation: statements are processed
in order, loop bodies twice (so ``x = taint(); y = x`` chains inside a
loop converge), and branch effects are unioned rather than joined —
conservative in the direction that matters for a linter (taint is never
dropped on a path that might execute).  Known limitations, by design:
attribute stores do not carry taint across methods (DET001 flags
nondeterministic state at its construction site instead), and closures/
nested defs are summarized as separate functions without
captured-variable taint.
"""

from __future__ import annotations

import ast
import re
import typing as _t

from repro.lint.asthelpers import ImportMap
from repro.lint.checkers.determinism import WALLCLOCK_CALLS
from repro.lint.checkers.simsafety import (BLOCKING_BUILTINS,
                                           EVENT_CLASSES, EVENT_FACTORIES,
                                           SIM_NAMES, blocking_kind)
from repro.lint.program.model import (MODULE_BODY, AllocRec, BlockRec,
                                      CallRec, Dest, Flow,
                                      FunctionSummary, LoadRec, LockRec,
                                      ModuleSummary, Origin, SinkRec,
                                      SourceRec, SpanStartRec, TaskRec,
                                      WriteRec)

__all__ = ["extract_module", "module_name_for"]

#: Scheduling methods on a simulator handle — sim-visible sinks.
_SIM_SINK_METHODS = {"timeout", "all_of", "succeed", "fail",
                     "schedule", "_schedule"}

#: Telemetry instrument methods, gated on a telemetry-ish receiver name.
_TELEMETRY_METHODS = {"inc", "observe", "set", "add", "record", "sample"}
_TELEMETRY_HINTS = ("counter", "gauge", "hist", "metric", "telemetr",
                    "span", "stat")

#: PACM utility entry points — the paper's cache-admission math.
_PACM_SINKS = {
    "repro.cache.pacm.utility_of",
    "repro.cache.pacm.select_keep_set",
}

#: OS-entropy sources (never reproducible).
_ENTROPY_CALLS = {
    "os.urandom", "os.getrandom",
    "uuid.uuid1", "uuid.uuid4",
    "secrets.token_bytes", "secrets.token_hex", "secrets.token_urlsafe",
    "secrets.randbelow", "secrets.choice", "secrets.randbits",
}

#: Filesystem-enumeration calls whose result order is OS-dependent.
_FS_ORDER_CALLS = {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}

#: numpy Generator constructors — unseeded means OS-seeded.
_NUMPY_CONSTRUCTORS = {
    "default_rng", "RandomState", "SeedSequence", "Generator",
    "MT19937", "PCG64", "PCG64DXSM", "Philox", "SFC64",
}

#: Ordering-sensitive library sinks (DET102).
_ORDER_SINK_CALLS = {"heapq.heappush", "heapq.heappushpop",
                     "heapq.heapify", "json.dump", "json.dumps"}

#: Receiver mutators that fold an argument into the receiver.
_MUTATORS = {"append", "appendleft", "add", "extend", "insert", "put"}

#: Builtins whose result reflects the *structure* of the argument, not
#: its value or iteration order — taint of any kind stops here.  Note
#: value-preserving conversions (``int``, ``round``, ``float``) are
#: deliberately absent: ``round(rng.random(), 3)`` is still random.
_STRUCTURE_BUILTINS = {"len", "bool", "isinstance", "issubclass",
                       "hasattr", "id", "type", "callable"}

#: Pseudo callee ref for ``sorted(...)``: the taint pass lets every
#: token through it *except* order tokens (sorting makes iteration
#: order part of the data; randomness survives sorting just fine).
SORTED_REF = "<sorted>"

#: ``module:function`` runner strings (repro.runner.registry).
_RUNNER_STRING = re.compile(r"\A[A-Za-z_][\w.]*\.[\w.]*:[A-Za-z_]\w*\Z")

#: Task-spawn APIs whose dropped result is GC-vulnerable (ASYNC102):
#: the loop keeps only weak references to tasks.
_TASK_SPAWN_PATHS = {"asyncio.create_task", "asyncio.ensure_future"}
_TASK_SPAWN_ATTRS = {"create_task", "ensure_future"}

#: Receiver names treated as an asyncio event loop handle.
_LOOP_NAMES = {"loop", "_loop"}

#: Receiver names carrying engine-domain time (``.now`` on these is a
#: "simtime" token for the ENG101 time-domain lattice).
_ENGINE_NAMES = {"engine", "_engine"}

#: Wall-time sinks (ENG101): the value parameter is interpreted as a
#: host-loop-relative delay/deadline.
_WALL_SINK_PATHS = {"asyncio.sleep"}
_WALL_SINK_ATTRS = {"call_later", "call_at"}

#: Context-manager receivers that look like mutual-exclusion guards.
_LOCK_HINTS = ("lock", "mutex", "semaphore")


def _is_lockish(node: ast.expr) -> bool:
    """Does this ``with`` context expression look like a lock?"""
    expr = node
    if isinstance(expr, ast.Call):
        expr = expr.func
        if isinstance(expr, ast.Attribute) and expr.attr == "acquire":
            expr = expr.value
    tail = _attr_chain_tail(expr)
    if tail is None:
        return False
    lowered = tail.lower()
    return any(hint in lowered for hint in _LOCK_HINTS)


def _contains_await(body: _t.Sequence[ast.stmt]) -> bool:
    """Any ``await`` in these statements, outside nested functions?"""
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if isinstance(node, ast.Await):
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


def module_name_for(relpath: str) -> str:
    """Dotted module name for a repo-relative POSIX path.

    ``src/repro/sim/kernel.py`` → ``repro.sim.kernel``;
    ``pkg/__init__.py`` → ``pkg``.  A leading ``src`` component is
    dropped so names match import paths under the repo's layout.
    """
    parts = relpath.split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(part for part in parts if part)


def _attr_chain_tail(node: ast.expr) -> str | None:
    """Last identifier of a Name/Attribute chain (``a.b.c`` → ``c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_sim_receiver(node: ast.expr) -> bool:
    """Does this expression look like a simulator handle?"""
    return _attr_chain_tail(node) in SIM_NAMES


def _loop_assigned(node: ast.stmt) -> set[str]:
    """Every name bound anywhere inside a loop statement.

    Attribute chains rooted at one of these names are not
    loop-invariant, so PERF102 must not suggest hoisting them.
    Comprehension/lambda parameters are included: they shadow outer
    names inside expressions this walk cannot scope precisely.
    """
    assigned: set[str] = set()

    def add_target(target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            assigned.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                add_target(element)
        elif isinstance(target, ast.Starred):
            add_target(target.value)

    for child in ast.walk(node):
        if isinstance(child, ast.Assign):
            for target in child.targets:
                add_target(target)
        elif isinstance(child, (ast.AugAssign, ast.AnnAssign)):
            add_target(child.target)
        elif isinstance(child, (ast.For, ast.AsyncFor)):
            add_target(child.target)
        elif isinstance(child, (ast.With, ast.AsyncWith)):
            for item in child.items:
                if item.optional_vars is not None:
                    add_target(item.optional_vars)
        elif isinstance(child, ast.NamedExpr):
            add_target(child.target)
        elif isinstance(child, ast.comprehension):
            add_target(child.target)
        elif isinstance(child, ast.Lambda):
            for argument in [*child.args.posonlyargs, *child.args.args,
                             *child.args.kwonlyargs]:
                assigned.add(argument.arg)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            assigned.add(child.name)
        elif isinstance(child, ast.ExceptHandler) and child.name:
            assigned.add(child.name)
    return assigned


class _FunctionExtractor:
    """Runs the local dataflow over one function (or the module body)."""

    def __init__(self, owner: "_ModuleExtractor", name: str,
                 node: ast.FunctionDef | ast.AsyncFunctionDef | None,
                 class_name: str | None) -> None:
        self.owner = owner
        self.name = name
        self.class_name = class_name
        self.env: dict[str, set[Origin]] = {}
        self.sources: list[SourceRec] = []
        self._source_index: dict[SourceRec, int] = {}
        self.sinks: list[SinkRec] = []
        self._sink_index: dict[SinkRec, int] = {}
        self.calls: list[CallRec] = []
        self._call_index: dict[CallRec, int] = {}
        self.flows: set[Flow] = set()
        self.writes: dict[WriteRec, None] = {}
        self.process_refs: set[tuple[str, int]] = set()
        #: ``.span(...)`` sites as (receiver, line, col); usage is
        #: tracked separately so the two-pass loop walk converges.
        self.span_sites: list[tuple[str, int, int]] = []
        self._span_index: dict[tuple[str, int, int], int] = {}
        self.span_usage: list[str] = []
        #: Innermost enclosing loop line per span site (0 = no loop).
        self.span_loops: list[int] = []
        self.entered_calls: set[int] = set()
        self.loop_allocs: dict[AllocRec, None] = {}
        self.loop_loads: dict[LoadRec, None] = {}
        self.param_types: dict[str, str] = {}
        #: Innermost-last stack of (loop line, names bound in the loop).
        self._loop_stack: list[tuple[int, set[str]]] = []
        self._in_while_test = False
        self._attr_depth = 0
        self._no_load = 0
        self.is_generator = False
        self.yields_event = False
        self.has_sim_handle = False
        self._acquired = False
        self.is_coroutine = isinstance(node, ast.AsyncFunctionDef)
        #: (line, col) of each recorded call → its index, so the Await/
        #: Expr statement walks can mark calls by position.
        self._call_pos: dict[tuple[int, int], int] = {}
        self.awaited_calls: set[int] = set()
        self.discarded_calls: set[int] = set()
        self.blocking_calls: dict[BlockRec, None] = {}
        self.task_drops: dict[TaskRec, None] = {}
        self.lock_awaits: dict[LockRec, None] = {}
        self.params: tuple[str, ...] = ()
        if node is not None:
            arguments = [*node.args.posonlyargs, *node.args.args,
                         *node.args.kwonlyargs]
            self.params = tuple(arg.arg for arg in arguments)
            for index, parameter in enumerate(self.params):
                self.env[parameter] = {("param", index)}
            if set(self.params) & SIM_NAMES:
                self.has_sim_handle = True
            for argument in arguments:
                if argument.annotation is None:
                    continue
                typed = owner.resolve_class_annotation(
                    argument.annotation)
                if typed is not None:
                    self.param_types[argument.arg] = typed

    # -- summary assembly ------------------------------------------------
    def summary(self, path: str, line: int) -> FunctionSummary:
        return FunctionSummary(
            name=self.name, path=path, line=line, params=self.params,
            is_generator=self.is_generator,
            yields_event=self.yields_event,
            has_sim_handle=self.has_sim_handle,
            sources=tuple(self.sources),
            sinks=tuple(self.sinks),
            calls=tuple(self.calls),
            flows=tuple(sorted(self.flows)),
            writes=tuple(self.writes),
            process_refs=tuple(sorted(self.process_refs)),
            span_starts=tuple(
                SpanStartRec(receiver=receiver, line=line, col=col,
                             usage=self.span_usage[index],
                             loop_line=self.span_loops[index])
                for index, (receiver, line, col)
                in enumerate(self.span_sites)),
            entered_calls=tuple(sorted(self.entered_calls)),
            loop_allocs=tuple(self.loop_allocs),
            loop_loads=tuple(self.loop_loads),
            is_coroutine=self.is_coroutine,
            awaited_calls=tuple(sorted(self.awaited_calls)),
            discarded_calls=tuple(sorted(self.discarded_calls)),
            blocking_calls=tuple(self.blocking_calls),
            task_drops=tuple(self.task_drops),
            lock_awaits=tuple(self.lock_awaits),
        )

    # -- deduplicated record tables --------------------------------------
    def _source(self, kind: str, node: ast.expr, detail: str) -> Origin:
        record = SourceRec(kind=kind, line=node.lineno,
                           col=node.col_offset, detail=detail)
        index = self._source_index.get(record)
        if index is None:
            index = len(self.sources)
            self.sources.append(record)
            self._source_index[record] = index
        return ("source", index)

    def _sink(self, kind: str, node: ast.expr, detail: str) -> int:
        record = SinkRec(kind=kind, line=node.lineno,
                         col=node.col_offset, detail=detail)
        index = self._sink_index.get(record)
        if index is None:
            index = len(self.sinks)
            self.sinks.append(record)
            self._sink_index[record] = index
        return index

    def _callrec(self, ref: str, node: ast.expr, name: str) -> int:
        record = CallRec(ref=ref, line=node.lineno,
                         col=node.col_offset, name=name)
        index = self._call_index.get(record)
        if index is None:
            index = len(self.calls)
            self.calls.append(record)
            self._call_index[record] = index
        self._call_pos[(node.lineno, node.col_offset)] = index
        return index

    def _flow_all(self, origins: set[Origin], dest: Dest) -> None:
        for origin in sorted(origins):
            self.flows.add((origin, dest))

    def _span_start(self, receiver: str, node: ast.expr) -> Origin:
        key = (receiver, node.lineno, node.col_offset)
        index = self._span_index.get(key)
        if index is None:
            index = len(self.span_sites)
            self.span_sites.append(key)
            self.span_usage.append("leaked")
            self.span_loops.append(self._loop_stack[-1][0]
                                   if self._loop_stack else 0)
            self._span_index[key] = index
        return ("span", index)

    def _mark_entered(self, origins: set[Origin]) -> None:
        """The origins were entered as a ``with`` context manager."""
        for tag, index in origins:
            if tag == "span":
                self.span_usage[index] = "with"
            elif tag == "call":
                self.entered_calls.add(index)

    # -- loop fact recording ---------------------------------------------
    def _expr_quiet(self, node: ast.expr) -> set[Origin]:
        """Evaluate without recording loop attribute-load facts."""
        self._no_load += 1
        try:
            return self._expr(node)
        finally:
            self._no_load -= 1

    def _record_chain_load(self, node: ast.Attribute) -> None:
        """Record a loop-invariant-rooted attribute chain load."""
        if self._no_load or self._attr_depth or not self._loop_stack:
            return
        parts = [node.attr]
        base = node.value
        while isinstance(base, ast.Attribute):
            parts.append(base.attr)
            base = base.value
        if not isinstance(base, ast.Name):
            return
        loop_line, assigned = self._loop_stack[-1]
        if base.id in assigned:
            return  # root rebound inside the loop; hoisting is unsafe
        parts.append(base.id)
        chain = ".".join(reversed(parts))
        self.loop_loads.setdefault(LoadRec(
            chain=chain, loop_line=loop_line, line=node.lineno,
            col=node.col_offset, in_test=self._in_while_test))

    def _push_loop(self, node: ast.stmt) -> None:
        self._loop_stack.append((node.lineno, _loop_assigned(node)))

    def _pop_loop(self) -> None:
        self._loop_stack.pop()

    # -- statement walk --------------------------------------------------
    def run(self, body: _t.Sequence[ast.stmt]) -> None:
        for statement in body:
            self._statement(statement)

    def _statement(self, node: ast.stmt) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if self._loop_stack:
                # A fresh closure object per iteration (PERF101).
                self.loop_allocs.setdefault(AllocRec(
                    desc=f"def {node.name}", line=node.lineno,
                    col=node.col_offset))
            return  # separate summaries; no captured-taint modeling
        if isinstance(node, ast.ClassDef):
            return
        if isinstance(node, ast.Assign):
            origins = self._expr(node.value)
            for target in node.targets:
                self._assign(target, origins)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._assign(node.target, self._expr(node.value))
        elif isinstance(node, ast.AugAssign):
            origins = self._expr(node.value)
            if isinstance(node.target, ast.Name):
                origins |= self.env.get(node.target.id, set())
            self._assign(node.target, origins)
        elif isinstance(node, ast.Return):
            if node.value is not None:
                origins = self._expr(node.value)
                for tag, index in origins:
                    # A returned span scope is a factory: entering it
                    # becomes the caller's responsibility (TEL002).
                    if tag == "span" and self.span_usage[index] != "with":
                        self.span_usage[index] = "returned"
                self._flow_all(origins, ("return",))
        elif isinstance(node, ast.Expr):
            self._expr(node.value)
            value = node.value
            if isinstance(value, ast.Call):
                # The whole statement is a bare call: its result —
                # possibly an un-awaited coroutine or a weak task
                # handle — is discarded (ASYNC102).  An awaited bare
                # call is not a Call node here and stays unmarked.
                index = self._call_pos.get(
                    (value.lineno, value.col_offset))
                if index is not None:
                    self.discarded_calls.add(index)
                self._maybe_task_drop(node, value)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            self._assign(node.target, self._expr(node.iter))
            self._push_loop(node)
            for _ in range(2):  # two passes: chained flows converge
                for inner in node.body:
                    self._statement(inner)
            self._pop_loop()
            for inner in node.orelse:
                self._statement(inner)
        elif isinstance(node, ast.While):
            self._push_loop(node)
            self._in_while_test = True
            self._expr(node.test)
            self._in_while_test = False
            for _ in range(2):
                for inner in node.body:
                    self._statement(inner)
            self._pop_loop()
            for inner in node.orelse:
                self._statement(inner)
        elif isinstance(node, ast.If):
            self._expr(node.test)
            for inner in (*node.body, *node.orelse):
                self._statement(inner)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            lockish = [item.context_expr for item in node.items
                       if _is_lockish(item.context_expr)]
            for item in node.items:
                origins = self._expr(item.context_expr)
                self._mark_entered(origins)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, origins)
            acquired_before = self._acquired
            if lockish:
                # Writes under the lock are serialized by it (the
                # with-statement twin of ``yield lock.acquire()``),
                # scoped to the guarded body.
                self._acquired = True
                if isinstance(node, ast.With) \
                        and _contains_await(node.body):
                    # A *sync* lock held across an await parks the
                    # whole event loop behind it (ASYNC103).
                    detail = (_attr_chain_tail(lockish[0]) or "lock")
                    self.lock_awaits.setdefault(LockRec(
                        line=node.lineno, col=node.col_offset,
                        detail=detail))
            for inner in node.body:
                self._statement(inner)
            if lockish:
                self._acquired = acquired_before
        elif isinstance(node, ast.Try):
            blocks = [*node.body]
            for handler in node.handlers:
                blocks.extend(handler.body)
            blocks.extend(node.orelse)
            blocks.extend(node.finalbody)
            for inner in blocks:
                self._statement(inner)
        elif isinstance(node, ast.Raise):
            if node.exc is not None:
                self._expr(node.exc)
        elif isinstance(node, ast.Assert):
            self._expr(node.test)
        elif isinstance(node, ast.Match):  # pragma: no cover - unused
            self._expr(node.subject)
            for case in node.cases:
                for inner in case.body:
                    self._statement(inner)

    def _assign(self, target: ast.expr, origins: set[Origin]) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = set(origins)
        elif isinstance(target, ast.Attribute):
            self._record_write(target)
        elif isinstance(target, ast.Subscript):
            base = target.value
            if isinstance(base, ast.Name):
                self.env.setdefault(base.id, set()).update(origins)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._assign(element, origins)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, origins)

    def _record_write(self, target: ast.Attribute) -> None:
        base = target.value
        if isinstance(base, ast.Name) and base.id == "self" \
                and self.class_name is not None:
            self.writes.setdefault(WriteRec(
                scope="self", attr=target.attr, line=target.lineno,
                col=target.col_offset, after_acquire=self._acquired))

    # -- expression evaluation -------------------------------------------
    def _expr(self, node: ast.expr) -> set[Origin]:
        if isinstance(node, ast.Name):
            if node.id in SIM_NAMES:
                self.has_sim_handle = True
            return set(self.env.get(node.id, ()))
        if isinstance(node, ast.Constant):
            if isinstance(node.value, str) \
                    and _RUNNER_STRING.match(node.value):
                self._record_runner_string(node)
            return set()
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.Attribute):
            if node.attr in SIM_NAMES:
                self.has_sim_handle = True
            self._record_chain_load(node)
            receiver_tail = _attr_chain_tail(node.value)
            if node.attr == "now" \
                    and receiver_tail in (SIM_NAMES | _ENGINE_NAMES):
                # Engine-domain timestamp (the ENG101 time lattice):
                # the receiver taint still propagates underneath.
                self._attr_depth += 1
                try:
                    origins = self._expr(node.value)
                finally:
                    self._attr_depth -= 1
                return origins | {self._source(
                    "simtime", node,
                    f"engine-domain time {receiver_tail}.now")}
            self._attr_depth += 1
            try:
                return self._expr(node.value)
            finally:
                self._attr_depth -= 1
        if isinstance(node, ast.Lambda):
            if self._loop_stack:
                # A fresh closure object per iteration (PERF101).
                self.loop_allocs.setdefault(AllocRec(
                    desc="lambda", line=node.lineno,
                    col=node.col_offset))
            return set()
        if isinstance(node, ast.Subscript):
            return self._expr(node.value) | self._expr(node.slice)
        if isinstance(node, ast.Set):
            origins = self._union(node.elts)
            origins.add(self._source("order", node, "set literal"))
            return origins
        if isinstance(node, ast.SetComp):
            origins = self._comprehension(node.generators, [node.elt])
            origins.add(self._source("order", node, "set comprehension"))
            return origins
        if isinstance(node, (ast.List, ast.Tuple)):
            return self._union(node.elts)
        if isinstance(node, ast.Dict):
            return self._union([
                *(key for key in node.keys if key is not None),
                *node.values])
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            return self._comprehension(node.generators, [node.elt])
        if isinstance(node, ast.DictComp):
            return self._comprehension(node.generators,
                                       [node.key, node.value])
        if isinstance(node, ast.BinOp):
            return self._expr(node.left) | self._expr(node.right)
        if isinstance(node, ast.BoolOp):
            return self._union(node.values)
        if isinstance(node, ast.UnaryOp):
            return self._expr(node.operand)
        if isinstance(node, ast.Compare):
            return self._expr(node.left) | self._union(node.comparators)
        if isinstance(node, ast.IfExp):
            return (self._expr(node.test) | self._expr(node.body)
                    | self._expr(node.orelse))
        if isinstance(node, ast.JoinedStr):
            return self._union(node.values)
        if isinstance(node, ast.FormattedValue):
            return self._expr(node.value)
        if isinstance(node, ast.Starred):
            return self._expr(node.value)
        if isinstance(node, ast.Await):
            origins = self._expr(node.value)
            if isinstance(node.value, ast.Call):
                index = self._call_pos.get(
                    (node.value.lineno, node.value.col_offset))
                if index is not None:
                    self.awaited_calls.add(index)
            return origins
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            self._yield(node)
            return set()
        if isinstance(node, ast.NamedExpr):
            origins = self._expr(node.value)
            self._assign(node.target, origins)
            return origins
        if isinstance(node, ast.Slice):
            return self._union([part for part in
                                (node.lower, node.upper, node.step)
                                if part is not None])
        return set()

    def _union(self, nodes: _t.Sequence[ast.expr]) -> set[Origin]:
        origins: set[Origin] = set()
        for node in nodes:
            origins |= self._expr(node)
        return origins

    def _comprehension(self, generators: _t.Sequence[ast.comprehension],
                       results: _t.Sequence[ast.expr]) -> set[Origin]:
        for generator in generators:
            self._assign(generator.target, self._expr(generator.iter))
            for condition in generator.ifs:
                self._expr(condition)
        return self._union(list(results))

    # -- yields ----------------------------------------------------------
    def _yield(self, node: ast.Yield | ast.YieldFrom) -> None:
        self.is_generator = True
        value = node.value
        if value is None:
            return
        self._expr(value)
        if isinstance(value, ast.Call):
            target = value.func
            if isinstance(target, ast.Attribute) \
                    and target.attr in EVENT_FACTORIES:
                self.yields_event = True
            elif isinstance(target, ast.Name) \
                    and target.id in EVENT_CLASSES:
                self.yields_event = True

    # -- calls: sources, sinks, edges ------------------------------------
    def _record_runner_string(self, node: ast.Constant) -> None:
        module, _, attr = str(node.value).partition(":")
        ref = f"{module}.{attr}"
        self._callrec(ref, node, f"runner string {node.value!r}")
        self.process_refs.add((ref, node.lineno))

    def _call(self, node: ast.Call) -> set[Origin]:
        func = node.func
        if isinstance(func, (ast.Attribute, ast.Name)) \
                and _attr_chain_tail(func) in SIM_NAMES:
            self.has_sim_handle = True
        if isinstance(func, ast.Attribute):
            # The bound-method lookup itself is a per-iteration
            # attribute load (PERF102 input).
            self._record_chain_load(func)
        if isinstance(func, ast.Attribute) \
                and func.attr in ("request", "acquire"):
            # Resource-protocol acquisition: writes after this point are
            # serialized by the resource (SIM101).
            self._acquired = True
        positional = [self._expr(argument) for argument in node.args]
        keywords = [(keyword.arg, self._expr(keyword.value))
                    for keyword in node.keywords]
        merged: set[Origin] = set()
        for origins in positional:
            merged |= origins
        for _name, origins in keywords:
            merged |= origins
        path = self.owner.imports.resolve(func)
        display = path or _attr_chain_tail(func) or "<call>"

        self._maybe_register_process(node, func)
        self._maybe_blocking(node, func, path)

        source = self._classify_source(node, func, path)
        if source is not None:
            kind, detail = source
            return {self._source(kind, node, detail)}

        if isinstance(func, ast.Attribute) and func.attr == "span":
            receiver = _attr_chain_tail(func.value)
            if receiver is not None:
                # A span-scope start (TEL002): the result carries a
                # ("span", i) token that With/Return consume; receiver
                # taint still propagates like any method call.
                merged |= self._expr(func.value)
                return merged | {self._span_start(receiver, node)}

        sink = self._classify_sink(func, path)
        if sink is not None:
            kind, detail = sink
            index = self._sink(kind, node, detail)
            if kind == "wall":
                # Only the delay/deadline argument is time-interpreted;
                # a callback (and its payload args) is not a wall-time
                # value, so flowing it would manufacture ENG101 noise.
                for origins in positional[:1]:
                    self._flow_all(origins, ("sink", index))
                for name, origins in keywords:
                    if name in ("delay", "when", "timeout"):
                        self._flow_all(origins, ("sink", index))
                return set(merged)
            for origins in positional:
                self._flow_all(origins, ("sink", index))
            if kind != "order":
                # Keyword args of ordering sinks (min/max ``key=``,
                # json.dumps ``sort_keys=``) control the comparison but
                # do not feed data whose order the sink can expose.
                for _name, origins in keywords:
                    self._flow_all(origins, ("sink", index))
            return set(merged)

        if isinstance(func, ast.Name) and func.id == "sorted" \
                and func.id not in self.owner.imports_aliases:
            index = self._callrec(SORTED_REF, node, "sorted")
            for position, origins in enumerate(positional):
                self._flow_all(origins, ("arg", index, position))
            return {("call", index)}

        if isinstance(func, ast.Name) \
                and func.id in _STRUCTURE_BUILTINS \
                and func.id not in self.owner.imports_aliases:
            return set()

        self._maybe_mutate_receiver(func, merged)

        ref = self.owner.resolve(func, self.class_name)
        if ref is None and isinstance(func, ast.Attribute) \
                and isinstance(func.value, ast.Name):
            # Parameter-annotation typing: ``entry: CacheEntry`` makes
            # ``entry.touch()`` resolve to ``CacheEntry.touch`` as long
            # as the name still holds the original parameter value.
            typed = self.param_types.get(func.value.id)
            if typed is not None and func.value.id in self.params \
                    and self.env.get(func.value.id) == \
                    {("param", self.params.index(func.value.id))}:
                ref = f"{typed}.{func.attr}"
        if ref is not None:
            index = self._callrec(ref, node, display)
            for position, origins in enumerate(positional):
                self._flow_all(origins, ("arg", index, position))
            for name, origins in keywords:
                if name is not None:
                    self._flow_all(origins, ("kwarg", index, name))
            return {("call", index)}
        # Unresolved callee: assume the result derives from the inputs —
        # including the receiver of a method call (``rng.random()``
        # returns something as tainted as ``rng`` itself).
        if isinstance(func, ast.Attribute):
            merged |= self._expr_quiet(func.value)
        elif not isinstance(func, ast.Name):
            # Calls on arbitrary expressions (``handlers[key]()``, ...).
            merged |= self._expr(func)
        return set(merged)

    def _classify_source(self, node: ast.Call, func: ast.expr,
                         path: str | None) -> tuple[str, str] | None:
        seeded = bool(node.args or node.keywords)
        if path is not None:
            if path == "random.Random":
                if not seeded:
                    return ("rng", "random.Random() without a seed")
                return None
            if path.startswith("random.SystemRandom"):
                return ("entropy", "random.SystemRandom (OS entropy)")
            if path.startswith("random."):
                return ("rng",
                        f"module-level {path}() (implicit global RNG)")
            if path.startswith("numpy.random."):
                attribute = path.split(".")[2]
                if attribute in _NUMPY_CONSTRUCTORS:
                    if not seeded:
                        return ("rng", f"numpy.random.{attribute}() "
                                       f"without a seed")
                    return None
                return ("rng", f"legacy numpy.random.{attribute}() "
                               f"(global state)")
            if path in WALLCLOCK_CALLS:
                return ("clock", f"wall clock {path}()")
            if path in _ENTROPY_CALLS:
                return ("entropy", f"{path}() (OS entropy)")
            if path in _FS_ORDER_CALLS:
                return ("order", f"{path}() (filesystem order)")
        if isinstance(func, ast.Attribute) and not node.args \
                and not node.keywords \
                and func.attr in ("keys", "values", "items"):
            return ("order", f".{func.attr}() view")
        if isinstance(func, ast.Name) \
                and func.id in ("set", "frozenset") \
                and func.id not in self.owner.imports_aliases:
            return ("order", f"{func.id}() call")
        return None

    def _classify_sink(self, func: ast.expr, path: str | None,
                       ) -> tuple[str, str] | None:
        if path is not None:
            if path in _PACM_SINKS:
                return ("pacm", f"PACM utility {path}()")
            if path in _ORDER_SINK_CALLS:
                return ("order", f"{path}()")
        if isinstance(func, ast.Attribute):
            receiver = func.value
            if func.attr in _SIM_SINK_METHODS \
                    and _is_sim_receiver(receiver):
                tail = _attr_chain_tail(receiver) or "sim"
                return ("sim",
                        f"event scheduling {tail}.{func.attr}(...)")
            if func.attr in ("timeout", "process", "run_process") \
                    and _is_sim_receiver(receiver):
                tail = _attr_chain_tail(receiver) or "sim"
                return ("sim",
                        f"event scheduling {tail}.{func.attr}(...)")
            if func.attr in _TELEMETRY_METHODS:
                hint = (_attr_chain_tail(receiver) or "").lower()
                if any(token in hint for token in _TELEMETRY_HINTS):
                    return ("telemetry",
                            f"telemetry sample "
                            f"{_attr_chain_tail(receiver)}"
                            f".{func.attr}(...)")
            if func.attr == "join" and not isinstance(receiver, ast.Call):
                return ("order", "str.join(...)")
        if isinstance(func, ast.Name) and func.id in ("min", "max") \
                and func.id not in self.owner.imports_aliases:
            return ("order", f"{func.id}(...)")
        if path in _WALL_SINK_PATHS:
            return ("wall", f"wall-time sink {path}(...)")
        if isinstance(func, ast.Attribute) \
                and func.attr in _WALL_SINK_ATTRS \
                and _attr_chain_tail(func.value) in _LOOP_NAMES:
            tail = _attr_chain_tail(func.value)
            return ("wall",
                    f"wall-time sink {tail}.{func.attr}(...)")
        return None

    def _maybe_register_process(self, node: ast.Call,
                                func: ast.expr) -> None:
        """Record ``sim.process(fn(...))``-style registrations."""
        is_registration = False
        if isinstance(func, ast.Attribute) \
                and func.attr in ("process", "run_process") \
                and _is_sim_receiver(func.value):
            is_registration = True
        elif isinstance(func, ast.Name) and func.id == "Process":
            is_registration = True
        if not is_registration:
            return
        for argument in node.args:
            candidate: ast.expr = argument
            if isinstance(candidate, ast.Call):
                candidate = candidate.func
            ref = self.owner.resolve(candidate, self.class_name)
            if ref is not None:
                self.process_refs.add((ref, node.lineno))

    def _maybe_blocking(self, node: ast.Call, func: ast.expr,
                        path: str | None) -> None:
        """Record a loop-blocking call site (ASYNC101 input)."""
        kind: str | None = None
        detail = ""
        if path is not None:
            kind = blocking_kind(path)
            if kind is not None:
                detail = f"{path}(...)"
        if kind is None and isinstance(func, ast.Name) \
                and func.id in BLOCKING_BUILTINS \
                and func.id not in self.env \
                and func.id not in self.owner.module_globals \
                and func.id not in self.owner.imports_aliases:
            kind = "file-io"
            detail = f"builtin {func.id}(...)"
        if kind is not None:
            self.blocking_calls.setdefault(BlockRec(
                kind=kind, line=node.lineno, col=node.col_offset,
                detail=detail))

    def _maybe_task_drop(self, stmt: ast.stmt, call: ast.Call) -> None:
        """Record a dropped task-spawn handle (ASYNC102 input)."""
        func = call.func
        api: str | None = None
        path = self.owner.imports.resolve(func)
        if path in _TASK_SPAWN_PATHS:
            api = path
        elif isinstance(func, ast.Attribute) \
                and func.attr in _TASK_SPAWN_ATTRS \
                and _attr_chain_tail(func.value) in _LOOP_NAMES:
            api = f"{_attr_chain_tail(func.value)}.{func.attr}"
        if api is None:
            return
        self.task_drops.setdefault(TaskRec(
            api=api, line=call.lineno, col=call.col_offset,
            end_line=stmt.end_lineno or stmt.lineno,
            end_col=stmt.end_col_offset or 0,
            indent=stmt.col_offset))

    def _maybe_mutate_receiver(self, func: ast.expr,
                               origins: set[Origin]) -> None:
        if not origins or not isinstance(func, ast.Attribute):
            return
        if func.attr in _MUTATORS and isinstance(func.value, ast.Name):
            self.env.setdefault(func.value.id, set()).update(origins)


class _ModuleExtractor:
    """Extraction driver for one file."""

    def __init__(self, relpath: str, tree: ast.Module) -> None:
        self.relpath = relpath
        self.module = module_name_for(relpath)
        self.tree = tree
        self.imports = ImportMap(tree)
        self.imports_aliases = self._alias_names(tree)
        self.local_functions: set[str] = set()
        self.local_classes: dict[str, set[str]] = {}
        #: Top-level data bindings; imports/defs/classes are code
        #: refs, not data (a global may shadow a builtin: ASYNC101).
        self.module_globals: set[str] = set()
        self._index_toplevel()
        self.module_globals -= (self.local_functions
                                | set(self.local_classes)
                                | self.imports_aliases)

    @staticmethod
    def _alias_names(tree: ast.Module) -> set[str]:
        names: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    names.add(alias.asname
                              or alias.name.split(".", 1)[0])
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    names.add(alias.asname or alias.name)
        return names

    def _index_toplevel(self) -> None:
        for node in self.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.local_functions.add(node.name)
            elif isinstance(node, ast.ClassDef):
                self.local_classes[node.name] = {
                    item.name for item in node.body
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef))}
            elif isinstance(node, (ast.Assign, ast.AnnAssign,
                                   ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if isinstance(target, ast.Name):
                        self.module_globals.add(target.id)

    def resolve_class_annotation(self, node: ast.expr) -> str | None:
        """Canonical class ref for a plain-Name parameter annotation."""
        if not isinstance(node, ast.Name):
            return None
        if node.id in self.local_classes:
            return f"{self.module}.{node.id}"
        if node.id in self.imports_aliases:
            return self.imports.resolve(node)
        return None

    def resolve(self, func: ast.expr,
                class_name: str | None) -> str | None:
        """Canonical dotted ref for a callee expression, else ``None``."""
        if isinstance(func, ast.Name):
            if func.id in self.local_functions:
                return f"{self.module}.{func.id}"
            if func.id in self.local_classes:
                return f"{self.module}.{func.id}"
            if func.id in self.imports_aliases:
                return self.imports.resolve(func)
            return None
        if isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name) and base.id == "self" \
                    and class_name is not None:
                if func.attr in self.local_classes.get(class_name, ()):
                    return f"{self.module}.{class_name}.{func.attr}"
                return None
            root: ast.expr = func
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) \
                    and root.id in self.imports_aliases:
                return self.imports.resolve(func)
        return None

    def exports(self) -> dict[str, str]:
        """Module-level name → canonical dotted target."""
        table: dict[str, str] = {}
        for node in self.tree.body:
            if isinstance(node, ast.ImportFrom) and node.module \
                    and node.level == 0:
                for alias in node.names:
                    local = alias.asname or alias.name
                    table[local] = f"{node.module}.{alias.name}"
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        table[alias.asname] = alias.name
            elif isinstance(node, ast.Assign) \
                    and isinstance(node.value, ast.Name):
                value = node.value.id
                for target in node.targets:
                    if not isinstance(target, ast.Name):
                        continue
                    if value in self.local_functions \
                            or value in self.local_classes:
                        table[target.id] = f"{self.module}.{value}"
                    elif value in table:
                        table[target.id] = table[value]
        return table

    def extract(self) -> ModuleSummary:
        functions: list[FunctionSummary] = []
        # Module body as a pseudo-function (runner strings, module-level
        # process registrations).
        body = _FunctionExtractor(
            self, f"{self.module}.{MODULE_BODY}", None, None)
        body.run([statement for statement in self.tree.body
                  if not isinstance(statement,
                                    (ast.FunctionDef,
                                     ast.AsyncFunctionDef,
                                     ast.ClassDef))])
        functions.append(body.summary(self.relpath, 1))
        for name, node, class_name in self._iter_functions():
            extractor = _FunctionExtractor(self, name, node, class_name)
            extractor.run(node.body)
            functions.append(
                extractor.summary(self.relpath, node.lineno))
        return ModuleSummary(
            path=self.relpath, module=self.module,
            exports=self.exports(), functions=functions,
            head_line=self._head_line())

    def _head_line(self) -> int:
        """First line where a module-level statement may be inserted.

        Skips the docstring and any ``from __future__`` imports, which
        must stay first; everything else (including plain imports) may
        legally follow an inserted assignment.
        """
        line = 1
        for index, node in enumerate(self.tree.body):
            is_docstring = (index == 0 and isinstance(node, ast.Expr)
                            and isinstance(node.value, ast.Constant)
                            and isinstance(node.value.value, str))
            is_future = (isinstance(node, ast.ImportFrom)
                         and node.module == "__future__")
            if is_docstring or is_future:
                line = (node.end_lineno or node.lineno) + 1
                continue
            return node.lineno
        return line

    def _iter_functions(self) -> _t.Iterator[
            tuple[str, ast.FunctionDef | ast.AsyncFunctionDef,
                  str | None]]:
        def walk(body: _t.Sequence[ast.stmt], prefix: str,
                 class_name: str | None) -> _t.Iterator[
                tuple[str, ast.FunctionDef | ast.AsyncFunctionDef,
                      str | None]]:
            for node in body:
                if isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    qualname = f"{prefix}.{node.name}"
                    yield (qualname, node, class_name)
                    yield from walk(node.body, qualname, class_name)
                elif isinstance(node, ast.ClassDef):
                    yield from walk(node.body,
                                    f"{prefix}.{node.name}", node.name)

        yield from walk(self.tree.body, self.module, None)


def extract_module(relpath: str, tree: ast.Module) -> ModuleSummary:
    """Extract the whole-program summary for one parsed module."""
    return _ModuleExtractor(relpath, tree).extract()
