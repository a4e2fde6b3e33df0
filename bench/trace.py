"""Timing wrappers around the layers' public functions, from outside.

The traced run installs these around names under `src/repro/`, runs a
closed loop with one fetch in flight, and removes them again; nothing
under `src/` changes and the untraced run asserts that no wrapper is
left (`assert_unpatched`).  A wrapper appends one tuple per call to an
in-memory list; the list is attributed (`attribute`) and written out
(`write_jsonl`) after the run.

With one fetch in flight, containment in time gives the parent: every
instant of a fetch is charged to the innermost span that is open, so a
span's self time is its duration minus what its children cover, and the
self times of one fetch plus the part no span covers (the residual) add
up to the fetch's latency exactly.

On the sim engine many virtual requests interleave in wall time, so
only the synchronous spans (codecs, cache, telemetry) carry wall self
time there; spans of generators (handlers, fetches, CPU holds) are
recorded on the engine's virtual clock and kept apart (`virtual`).
"""

from __future__ import annotations

import asyncio
import collections
import dataclasses
import json
import typing as _t
from time import perf_counter_ns

#: The harness's own measurement of one fetch; the pseudo-span every
#: other span of the request nests in.
REQUEST = "request"

_MARK = "__bench_wrapper__"

#: Span names, in the order the self-time table prints them.
SPAN_NAMES = (
    "core.client_fetch",
    "dnslib.exchange", "dnslib.encode", "dnslib.decode",
    "engine.udp_rtt", "engine.tcp_rtt",
    "httplib.encode_request", "httplib.read_request",
    "httplib.encode_response", "httplib.read_response",
    "core.ap_dns", "core.ap_serve", "core.edge_serve", "core.other_node",
    "net.ap_cpu",
    "cache.get", "cache.admit", "cache.select_victims", "cache.knapsack",
    "telemetry.observe", "telemetry.inc", "telemetry.span",
)

#: name, start ns, end ns, a measured value or None.
Span = tuple[str, int, int, float | None]


def _node_span(kind: str) -> _t.Callable[[object], str]:
    suffix = {"tcp": "serve", "udp": "dns"}[kind]

    def name_of(node: _t.Any) -> str:
        if node.name == "ap" or (node.name == "edge" and kind == "tcp"):
            return f"core.{node.name}_{suffix}"
        return "core.other_node"

    return name_of


class Tracer:
    """Installs the wrappers, holds what they record, removes them."""

    def __init__(self, virtual: bool = False) -> None:
        #: True on the sim engine: generator spans read `owner.sim.now`.
        self.virtual = virtual
        self.spans: list[Span] = []
        self.virtual_spans: list[Span] = []
        self.counts: collections.Counter[str] = collections.Counter()
        #: Actual minus requested delay of every engine timeout, ns.
        self.timer_overruns: list[int] = []
        self._undo: list[tuple[object, str, bool, object]] = []

    # ------------------------------------------------------------------
    # Installing and removing
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every class- and module-level target (see README)."""
        for owner, attr, make in _targets(self):
            self._patch(owner, attr, make)

    def install_on_loop(self, loop: asyncio.AbstractEventLoop) -> None:
        """Count what the live engine asks of this loop instance.

        `call_later` reaches `call_at`, so counting `call_soon` and
        `call_at` sees every callback once.
        """
        for attr in ("call_soon", "call_at"):
            self._patch(loop, attr, lambda fn: self._counted(
                "engine.loop_callbacks", fn))

        def factory(loop_: asyncio.AbstractEventLoop, coro: _t.Any,
                    **kwargs: _t.Any) -> "asyncio.Task[object]":
            self.counts["engine.tasks"] += 1
            return asyncio.Task(coro, loop=loop_, **kwargs)

        previous = loop.get_task_factory()
        loop.set_task_factory(factory)
        self._undo.append((loop, "<task factory>", True, previous))

    def remove(self) -> None:
        """Put every original back, last installed first."""
        while self._undo:
            owner, attr, had, original = self._undo.pop()
            if attr == "<task factory>":
                _t.cast(asyncio.AbstractEventLoop,
                        owner).set_task_factory(_t.cast(_t.Any, original))
            elif had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _patch(self, owner: object, attr: str,
               make: _t.Callable[[_t.Callable], _t.Callable]) -> None:
        namespace = vars(owner)
        had = attr in namespace
        raw = namespace[attr] if had else getattr(owner, attr)
        if isinstance(raw, classmethod):
            wrapper: object = classmethod(_marked(make(raw.__func__)))
        else:
            wrapper = _marked(make(raw))
        self._undo.append((owner, attr, had, raw))
        setattr(owner, attr, wrapper)

    # ------------------------------------------------------------------
    # Wrapper factories
    # ------------------------------------------------------------------
    def sync(self, name: str,
             measure: _t.Callable[[tuple, object], float] | None = None,
             ) -> _t.Callable[[_t.Callable], _t.Callable]:
        """Time a plain function; `measure(args, result)` adds a value."""
        spans = self.spans

        def make(fn: _t.Callable) -> _t.Callable:
            def wrapper(*args: _t.Any, **kwargs: _t.Any) -> object:
                start = perf_counter_ns()
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    spans.append((
                        name, start, perf_counter_ns(),
                        measure(args, result) if measure and
                        result is not None else None))
            return wrapper
        return make

    def coroutine(self, name: str,
                  ) -> _t.Callable[[_t.Callable], _t.Callable]:
        spans = self.spans

        def make(fn: _t.Callable) -> _t.Callable:
            async def wrapper(*args: _t.Any, **kwargs: _t.Any) -> object:
                start = perf_counter_ns()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    spans.append((name, start, perf_counter_ns(), None))
            return wrapper
        return make

    def generator(self, name_of: "str | _t.Callable[[object], str]",
                  ) -> _t.Callable[[_t.Callable], _t.Callable]:
        """Time a generator (function) from first resume to return.

        The owner (`args[0]`) supplies the virtual clock on the sim
        engine and, for node handlers, the span name.
        """
        def make(fn: _t.Callable) -> _t.Callable:
            def wrapper(*args: _t.Any, **kwargs: _t.Any) -> object:
                name = name_of if isinstance(name_of, str) \
                    else name_of(args[0])
                return self._timed(fn(*args, **kwargs), name, args[0])
            return wrapper
        return make

    def _clock(self, owner: _t.Any) -> tuple[_t.Callable[[], int],
                                             list[Span]]:
        if self.virtual:
            engine = owner.sim
            return (lambda: int(engine.now * 1e9)), self.virtual_spans
        return perf_counter_ns, self.spans

    def _timed(self, inner: _t.Generator, name: str, owner: object,
               ) -> _t.Generator:
        clock, spans = self._clock(owner)
        start = clock()
        try:
            result = yield from inner
        finally:
            spans.append((name, start, clock(), None))
        return result

    def cpu_hold(self, fn: _t.Callable) -> _t.Callable:
        """`Node.occupy_cpu` on the AP: wait + hold, call to completion;
        the value is the sojourn the queue itself reports (seconds)."""
        counts = self.counts

        def wrapper(node: _t.Any, duration: float) -> _t.Any:
            process = fn(node, duration)
            if node.name != "ap":
                return process
            if node.cpu.queue_length > counts["net.ap_cpu_queue_max"]:
                counts["net.ap_cpu_queue_max"] = node.cpu.queue_length
            clock, spans = self._clock(node)
            start = clock()
            process.callbacks.append(lambda event: spans.append(
                ("net.ap_cpu", start, clock(),
                 float(event.value) if event.ok else None)))
            return process
        return wrapper

    def timeout(self, fn: _t.Callable) -> _t.Callable:
        """`WallClock.timeout`: how late each engine timer fires."""
        overruns = self.timer_overruns
        counts = self.counts

        def wrapper(engine: object, delay: float,
                    value: object = None) -> _t.Any:
            counts["engine.timeouts"] += 1
            start = perf_counter_ns()
            event = fn(engine, delay, value)
            event.callbacks.append(lambda _event: overruns.append(
                perf_counter_ns() - start - int(delay * 1e9)))
            return event
        return wrapper

    def _counted(self, key: str, fn: _t.Callable) -> _t.Callable:
        counts = self.counts

        def wrapper(*args: _t.Any, **kwargs: _t.Any) -> object:
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def counted(self, key: str) -> _t.Callable[[_t.Callable], _t.Callable]:
        return lambda fn: self._counted(key, fn)


def _marked(wrapper: _t.Callable) -> _t.Callable:
    setattr(wrapper, _MARK, True)
    return wrapper


def _targets(tracer: Tracer) -> list[tuple[object, str, _t.Callable]]:
    """(owner, attribute, wrapper factory) for every wrapped name.

    Functions imported by name are patched where they are *used*: the
    live transport calls `repro.engine.livenet.encode_request`, PACM
    calls `repro.cache.pacm.solve_knapsack`.
    """
    from repro.cache import pacm as pacm_module
    from repro.cache.store import CacheStore
    from repro.core.client_runtime import ClientRuntime
    from repro.dnslib.message import Message
    from repro.dnslib.resolver import StubResolver
    from repro.net.node import Node
    from repro.telemetry.instruments import Counter, Histogram
    from repro.telemetry.registry import Telemetry
    from repro.telemetry.spans import SpanScope

    def wire_bytes(_args: tuple, result: object) -> float:
        return float(len(_t.cast(bytes, result)))

    targets: list[tuple[object, str, _t.Callable]] = [
        (Message, "encode", tracer.sync("dnslib.encode")),
        (Message, "decode", tracer.sync("dnslib.decode")),
        (StubResolver, "exchange", tracer.generator("dnslib.exchange")),
        (CacheStore, "get", tracer.sync("cache.get")),
        (CacheStore, "admit", tracer.sync(
            "cache.admit",
            lambda _args, result: float(_t.cast(_t.Any, result).admitted))),
        (pacm_module.PacmPolicy, "select_victims",
         tracer.sync("cache.select_victims")),
        (pacm_module, "solve_knapsack", tracer.sync(
            "cache.knapsack", lambda args, _result: float(len(args[0])))),
        (Node, "handle_tcp", tracer.generator(_node_span("tcp"))),
        (Node, "handle_udp", tracer.generator(_node_span("udp"))),
        (Node, "occupy_cpu", tracer.cpu_hold),
        (ClientRuntime, "fetch", tracer.generator("core.client_fetch")),
        (Histogram, "observe", tracer.sync("telemetry.observe")),
        (Counter, "inc", tracer.sync("telemetry.inc")),
        # One telemetry span costs three calls: scope creation, enter
        # and exit; all three are charged to "telemetry.span".
        (Telemetry, "span", tracer.sync("telemetry.span")),
        (SpanScope, "__enter__", tracer.sync("telemetry.span")),
        (SpanScope, "__exit__", tracer.sync("telemetry.span")),
    ]
    if tracer.virtual:
        from repro.sim.kernel import Simulator

        targets.append((Simulator, "process",
                        tracer.counted("sim.processes")))
        return targets

    from repro.engine import live as live_module
    from repro.engine import livenet
    from repro.engine.wallclock import WallClock

    targets += [
        (livenet, "encode_request",
         tracer.sync("httplib.encode_request", wire_bytes)),
        (livenet, "encode_response",
         tracer.sync("httplib.encode_response", wire_bytes)),
        (livenet, "read_request", tracer.coroutine("httplib.read_request")),
        (livenet, "read_response",
         tracer.coroutine("httplib.read_response")),
        # The admin plane's copy; idle in the benchmark, patched so no
        # importer of the name is left unwrapped.
        (live_module, "read_request",
         tracer.coroutine("httplib.read_request")),
        (livenet.LiveTransport, "udp_request",
         tracer.generator("engine.udp_rtt")),
        (livenet.LiveTransport, "tcp_exchange",
         tracer.generator("engine.tcp_rtt")),
        (WallClock, "timeout", tracer.timeout),
        (WallClock, "process", tracer.counted("engine.processes")),
        (WallClock, "from_awaitable", tracer.counted("engine.bridges")),
    ]
    return targets


def patched_names() -> list[str]:
    """Wrapped names still installed anywhere (empty = unmodified)."""
    found = []
    for virtual in (False, True):
        for owner, attr, _make in _targets(Tracer(virtual=virtual)):
            raw = vars(owner).get(attr)
            raw = getattr(raw, "__func__", raw)
            if getattr(raw, _MARK, False):
                found.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return sorted(set(found))


def assert_unpatched() -> None:
    """The untraced run measures the program as shipped."""
    found = patched_names()
    if found:
        raise AssertionError(f"timing wrappers still installed: {found}")


# ----------------------------------------------------------------------
# Attribution
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Attribution:
    """Parent, request and self time of every span, index-aligned."""

    spans: list[Span]
    parent: list[int]
    #: Index of the enclosing request (its ordinal), -1 outside any.
    request: list[int]
    self_ns: list[int]

    def self_ms_per_request(self) -> dict[str, float]:
        """Mean self time per fetch, by span name, REQUEST included
        (its self time is the residual no wrapped function covers)."""
        requests = sum(1 for span in self.spans if span[0] == REQUEST)
        totals: collections.Counter[str] = collections.Counter()
        for span, request, self_ns in zip(self.spans, self.request,
                                          self.self_ns):
            if request >= 0:
                totals[span[0]] += self_ns
        return {name: total / 1e6 / requests
                for name, total in totals.items()} if requests else {}


def attribute(spans: _t.Sequence[Span]) -> Attribution:
    """Charge every instant to the innermost open span.

    One sweep over the start/end boundaries in time order; the
    innermost open span is the one opened last.  Properly nested spans
    get the classical self time; overlapping siblings never count an
    instant twice, so self times always add up to what the spans
    cover.  Among spans with equal bounds, the one recorded last is
    outermost: a wrapper appends its span when the call *returns*.
    """
    spans = list(spans)
    # At one instant: spans that end there close first, so the next
    # sibling does not nest in them; then spans open, outermost first;
    # a zero-length span closes only after it has opened.
    closes, opens, closes_empty = 0, 1, 2
    boundaries: list[tuple[int, int, int, int]] = []
    for index, (_name, start, end, _value) in enumerate(spans):
        boundaries.append((start, opens, -index, index))
        boundaries.append((end, closes if end > start else closes_empty,
                           index, index))
    boundaries.sort()

    parent = [-1] * len(spans)
    request = [-1] * len(spans)
    self_ns = [0] * len(spans)
    open_spans: list[int] = []
    ordinal = -1
    current_request = -1
    previous = 0
    for instant, kind, _tie, index in boundaries:
        if open_spans:
            self_ns[open_spans[-1]] += instant - previous
        previous = instant
        if kind == opens:
            if spans[index][0] == REQUEST:
                ordinal += 1
                current_request = ordinal
            parent[index] = open_spans[-1] if open_spans else -1
            request[index] = current_request
            open_spans.append(index)
        else:
            if open_spans[-1] == index:
                open_spans.pop()
            else:
                open_spans.remove(index)
            if spans[index][0] == REQUEST:
                current_request = -1
    return Attribution(spans, parent, request, self_ns)


def write_jsonl(path: str, attribution: Attribution,
                virtual_spans: _t.Sequence[Span] = ()) -> None:
    """One span per line: name, start, end, parent, request#."""
    origin = min((span[1] for span in attribution.spans), default=0)
    with open(path, "w", encoding="utf-8") as handle:
        for index, (name, start, end, value) in enumerate(
                attribution.spans):
            record: dict[str, object] = {
                "id": index, "name": name, "start_ns": start - origin,
                "end_ns": end - origin,
                "parent": attribution.parent[index]
                if attribution.parent[index] >= 0 else None,
                "request": attribution.request[index]
                if attribution.request[index] >= 0 else None}
            if value is not None:
                record["value"] = value
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")
        for name, start, end, value in virtual_spans:
            record = {"name": name, "start_ns": start, "end_ns": end,
                      "parent": None, "request": None, "clock": "virtual"}
            if value is not None:
                record["value"] = value
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")
