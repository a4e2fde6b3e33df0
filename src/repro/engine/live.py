"""The live APE-CACHE stack: the simulated components on real sockets.

One OS process, one asyncio loop, one :class:`WallClock` engine, one
shared telemetry registry — and the *unchanged* protocol stack from the
simulation: :class:`~repro.core.ap_runtime.ApRuntime` (DNS-Cache
piggybacking + PACM) on the AP node, an upstream authoritative DNS, the
edge cache, and the origin tier.  Each tier binds real loopback sockets
(port 0 by default, so test runs never collide), and
:class:`~repro.engine.livenet.LiveTransport` routes the stack's
node-address identities onto those endpoints.

Because the components are shared with the simulator, the span taxonomy
(``request`` → ``dns_piggyback`` → ``ap_hit`` / ``ap_delegated`` …), the
TYPE=300 cache RR, the ``x-ape-*`` headers, and the PACM admission path
are identical by construction — which is exactly what the parity
harness (:mod:`repro.engine.parity`) verifies.

Shutdown contract: :meth:`LiveStack.stop` (wired to SIGINT/SIGTERM by
:func:`run_live`) marks the stack *draining* (``/healthz`` flips to
503 while the admin plane keeps answering), closes the listening
sockets, drains in-flight requests, closes the idle kept-alive
connections and pooled sockets on both sides, flushes telemetry JSONL
exports, and the process exits 0 — or 1 when the run broke a
live-health bound (:func:`repro.telemetry.obs.live_health_violations`:
a socket error, a loop stall, loop-lag p99 over 200 ms).  The flush
also runs on the **failure** path: ``_run_stack`` stops the stack in
a ``finally``, and :meth:`stop` itself flushes even when a drain
raises, so a crash mid-serve still leaves spans/metrics/log exports
behind.

With ``metrics_port`` set, an :class:`AdminServer` rides alongside the
cache tiers serving ``/metrics`` (Prometheus text exposition,
:mod:`repro.telemetry.exposition`), ``/healthz`` (lifecycle JSON) and
``/debug/traces`` (slowest/error trace trees from the span log) — see
docs/live.md.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import signal
import time
import typing as _t

from repro.core.ap_runtime import ApRuntime
from repro.core.client_runtime import ClientRuntime, FetchResult
from repro.core.config import ApeCacheConfig
from repro.dnslib.server import AuthoritativeService
from repro.dnslib.zone import Zone
from repro.engine.livenet import (
    LIVE_HOST,
    LiveHttpServer,
    LiveTransport,
    LiveUdpServer,
)
from repro.engine.wallclock import LoopLagWatchdog, WallClock
from repro.errors import HttpError
from repro.httplib.content import DataObject
from repro.httplib.messages import HttpRequest
from repro.httplib.server import (
    EdgeCacheServer,
    HostingDirectory,
    OriginServer,
)
from repro.httplib.url import Url
from repro.httplib.wire import (
    encode_payload_response,
    read_head,
    read_request,
)
from repro.net.address import IPv4Address
from repro.net.node import Node
from repro.telemetry.exposition import PROM_CONTENT_TYPE, render_prometheus
from repro.telemetry.logfmt import StructuredLog
from repro.telemetry.registry import Telemetry
from repro.telemetry.spans import Span

__all__ = ["AdminServer", "LiveStackConfig", "LiveStack", "run_live"]

#: Default trace count ``/debug/traces`` returns.
DEFAULT_TRACE_LIMIT = 10

#: Finished spans a live stack's own registry retains (~2 000 fetches):
#: a flight recorder for ``/debug/traces``, parity runs and the shutdown
#: export, not a transcript — a serving process must not grow with the
#: requests it has served.  ``/healthz`` reports how many were dropped.
LIVE_SPAN_RING = 8192

#: TTL for the upstream zone's A records.  Long enough that a demo or
#: parity run resolves each domain once, like the simulated CDN chain
#: does within its 5 s answer TTL.
_ZONE_TTL_S = 60


@dataclasses.dataclass
class LiveStackConfig:
    """Knobs for the live deployment."""

    #: Loopback host every tier binds.
    host: str = LIVE_HOST
    #: Seconds to stay in the *draining* state (admin plane answering
    #: 503 on ``/healthz``) before the tier sockets close — gives load
    #: balancers/probes an observable drain window.
    drain_grace_s: float = 0.0
    #: Flush spans/metrics here on shutdown ("" = no export).
    spans_path: str = ""
    metrics_path: str = ""
    #: Flush the structured log here on shutdown ("" = no export).
    logs_path: str = ""
    #: Bind the admin plane (``/metrics``, ``/healthz``,
    #: ``/debug/traces``) on this port; 0 = ephemeral, None = no admin
    #: server.
    metrics_port: int | None = None
    #: Event-loop lag watchdog probe period (seconds).
    watchdog_interval_s: float = 0.25


class LiveStack:
    """A fully wired live deployment on loopback sockets.

    Build it inside a running asyncio loop, then ``await start()``;
    the node addresses are simulation-style identities (the AP keeps
    its ``192.168.8.1``), mapped to real ephemeral endpoints by the
    live transport.
    """

    def __init__(self, engine: WallClock,
                 config: LiveStackConfig | None = None,
                 ape_config: ApeCacheConfig | None = None,
                 telemetry: Telemetry | None = None) -> None:
        self.engine = engine
        self.config = config or LiveStackConfig()
        #: One registry for every tier, clocked off the wall engine, so
        #: cross-tier traces share one id space — same layout as the
        #: simulated testbed's.  Its histograms are fixed-memory
        #: sketches: a serving process keeps no sample per request.
        self.telemetry = (telemetry if telemetry is not None
                          else Telemetry(engine, max_spans=LIVE_SPAN_RING,
                                         histogram_backend="sketch"))
        self.transport = LiveTransport(engine, telemetry=self.telemetry)
        # Surface the engine's owned-task count (the ASYNC102 pattern)
        # as a live-health gauge for the obs panel.
        engine.tasks.bind_gauge(self.telemetry.gauge("live.tasks_active"))

        cfg = self.config
        # No CPU capacities: the wall engine accounts modelled CPU
        # without holding it (``node.cpu.busy_time``), so nothing
        # contends for a slot.
        self.ap = Node(engine, "ap", IPv4Address("192.168.8.1"))
        self.upstream = Node(engine, "updns", IPv4Address("10.0.0.53"))
        self.edge = Node(engine, "edge", IPv4Address("10.0.0.10"))
        self.origin = Node(engine, "origin", IPv4Address("10.0.0.20"))

        # The upstream authoritative collapses the simulated ADNS → CDN
        # chain: its zones answer app domains directly with the edge's
        # address (the delegation target the AP needs).
        self.dns_service = AuthoritativeService(self.upstream)
        self.dns_service.bind_telemetry(self.telemetry)
        self.dns_service.install()

        self.directory = HostingDirectory()
        self.origin_server = OriginServer(self.origin)
        self.origin_server.install()
        self.edge_server = EdgeCacheServer(self.edge, self.transport,
                                           self.directory)
        self.edge_server.install()

        self.ap_runtime = ApRuntime(self.ap, self.transport,
                                    self.upstream.address,
                                    config=ape_config,
                                    telemetry=self.telemetry)
        self.ap_runtime.install()

        tel = self.telemetry
        self._servers: list[LiveUdpServer | LiveHttpServer] = [
            LiveUdpServer(engine, self.ap, telemetry=tel),
            LiveHttpServer(engine, self.ap, telemetry=tel),
            LiveUdpServer(engine, self.upstream, telemetry=tel),
            LiveHttpServer(engine, self.edge, telemetry=tel),
            LiveHttpServer(engine, self.origin, telemetry=tel),
        ]
        self._domains: set[str] = set()
        self._clients = 0
        #: Serializes start/stop; both write the lifecycle state and an
        #: interleaved stop could observe a half-started stack.
        self._lifecycle_lock = asyncio.Lock()
        self._state = "starting"
        #: Trace-correlated JSONL event log, clocked off the engine so
        #: its records line up with span timestamps.
        self.log = StructuredLog(clock=lambda: self.engine.now)
        self.log.log("lifecycle", state=self._state)
        #: role -> (host, port) once started (the /healthz payload).
        self.endpoints: dict[str, tuple[str, int]] = {}
        self.watchdog = LoopLagWatchdog(
            engine.loop,
            self.telemetry.histogram("live.loop_lag_ms"),
            self.telemetry.counter("live.loop_stalls"),
            interval_s=cfg.watchdog_interval_s,
            on_stall=self._record_stall)
        self.admin = AdminServer(self)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        """Lifecycle state: starting / serving / draining / stopped."""
        return self._state

    def _set_state(self, state: str) -> None:
        self._state = state
        self.log.log("lifecycle", state=state)

    def _record_stall(self, lag_ms: float) -> None:
        self.log.log("loop_stall", level="warning",
                     lag_ms=round(lag_ms, 3),
                     threshold_ms=self.watchdog.stall_threshold_ms)

    async def start(self) -> dict[str, tuple[str, int]]:
        """Bind every tier; returns ``role -> (host, port)``.

        Bring-up is transactional: if any tier fails to bind, every
        already-bound server (the admin plane included) is stopped
        again in reverse order before the error propagates, so a failed
        ``repro.cli live --serve`` leaks no listening sockets.  With
        ``config.metrics_port`` set, the returned map gains an
        ``admin/http`` entry and the lag watchdog starts probing.
        """
        host = self.config.host
        endpoints: dict[str, tuple[str, int]] = {}
        async with self._lifecycle_lock:
            started: list[LiveUdpServer | LiveHttpServer] = []
            admin_started = False
            try:
                for server in self._servers:
                    endpoint = await server.start(host=host, port=0)
                    started.append(server)
                    node = server.node
                    if isinstance(server, LiveUdpServer):
                        self.transport.register_udp(node.address, endpoint)
                        endpoints[f"{node.name}/dns"] = endpoint
                    else:
                        self.transport.register_tcp(node.address, endpoint)
                        endpoints[f"{node.name}/http"] = endpoint
                if self.config.metrics_port is not None:
                    endpoints["admin/http"] = await self.admin.start(
                        host=host, port=self.config.metrics_port)
                    admin_started = True
            except Exception:
                if admin_started:
                    await self.admin.stop()
                for server in reversed(started):
                    await server.stop(0.0)
                raise
            self.endpoints = dict(endpoints)
            self.watchdog.start()
            self._set_state("serving")
        return endpoints

    async def stop(self) -> None:
        """Graceful shutdown: drain (admin answering 503), then flush.

        The watchdog stops first (the blessed blocking flush below must
        not count as a stall) and the admin plane stops *last*, so
        ``/healthz`` keeps reporting ``draining`` while the cache tiers
        drain.  Telemetry is flushed in a ``finally``: an exception
        while draining still leaves the JSONL exports behind.
        """
        async with self._lifecycle_lock:
            if self._state == "stopped":
                return
            self.watchdog.stop()
            self._set_state("draining")
            try:
                if self.config.drain_grace_s > 0.0:
                    await asyncio.sleep(self.config.drain_grace_s)
                for server in self._servers:
                    await server.stop()
            finally:
                # The servers closed their side of every kept-alive
                # connection; the transport closes the client side.
                await self.transport.close()
                await self.admin.stop()
                self._set_state("stopped")
                self._flush_telemetry()

    def _flush_telemetry(self) -> None:
        from repro.telemetry.export import (
            write_metrics_jsonl,
            write_spans_jsonl,
        )

        if self.config.spans_path:
            write_spans_jsonl(self.telemetry, self.config.spans_path)
        if self.config.metrics_path:
            write_metrics_jsonl(self.telemetry, self.config.metrics_path)
        if self.config.logs_path:
            self.log.write_jsonl(self.config.logs_path)

    # ------------------------------------------------------------------
    # Population (mirrors Testbed's surface)
    # ------------------------------------------------------------------
    def add_domain(self, domain: str) -> None:
        """Publish ``domain`` upstream, resolving to the edge cache."""
        if domain in self._domains:
            return
        zone = Zone(domain)
        zone.add_a(domain, self.edge.address, ttl=_ZONE_TTL_S)
        self.dns_service.add_zone(zone)
        self._domains.add(domain)

    def host_object(self, url: str, size_bytes: int,
                    origin_delay_s: float = 0.0,
                    preload_edge: bool = True) -> DataObject:
        """Create an object at the origin and publish its domain."""
        parsed = Url.parse(url)
        self.add_domain(parsed.host)
        data_object = DataObject(parsed.base, size_bytes)
        self.origin_server.host(data_object, service_delay_s=origin_delay_s)
        self.directory.register(parsed.base, self.origin.address)
        if preload_edge:
            self.edge_server.preload([data_object])
            if origin_delay_s:
                self.edge_server.set_serve_delay(parsed.base, origin_delay_s)
        return data_object

    def add_client(self, app_id: str) -> ClientRuntime:
        """A new client device talking to the live AP."""
        self._clients += 1
        node = Node(self.engine, f"client{self._clients}",
                    IPv4Address(f"192.168.8.{100 + self._clients}"))
        return ClientRuntime(node, self.transport, self.ap.address,
                             app_id=app_id, telemetry=self.telemetry)

    async def fetch(self, client: ClientRuntime, url: str) -> FetchResult:
        """Drive one client fetch to completion (coroutine form)."""
        result = await self.engine.run_process(client.fetch(url))
        return _t.cast(FetchResult, result)

    def __repr__(self) -> str:
        return (f"<LiveStack {self._state} clients={self._clients} "
                f"domains={len(self._domains)}>")


# ----------------------------------------------------------------------
# The admin plane
# ----------------------------------------------------------------------

def _dumps(payload: object) -> bytes:
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def _query_int(query: str, key: str, default: int) -> int:
    """``n`` from ``?n=25``-style query strings; default on anything odd."""
    for part in query.split("&"):
        name, sep, value = part.partition("=")
        if sep and name == key:
            try:
                return max(1, int(value))
            except ValueError:
                return default
    return default


def _jsonable(value: object) -> object:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def _span_tree(root: Span, spans: _t.Sequence[Span]) -> dict[str, object]:
    """One trace rendered as a nested span dict (children inline)."""
    by_parent: dict[int | None, list[Span]] = {}
    for span in spans:
        by_parent.setdefault(span.parent_id, []).append(span)

    def node(span: Span) -> dict[str, object]:
        return {
            "name": span.name,
            "span": span.span_id,
            "start_ms": round(span.start_s * 1e3, 3),
            "duration_ms": round(span.duration_s * 1e3, 3),
            "status": span.status,
            "attrs": {key: _jsonable(span.attrs[key])
                      for key in sorted(span.attrs)},
            "children": [node(child)
                         for child in by_parent.get(span.span_id, [])],
        }

    return node(root)


def trace_payload(telemetry: Telemetry,
                  limit: int = DEFAULT_TRACE_LIMIT) -> dict[str, object]:
    """The ``/debug/traces`` document: N slowest/error trace trees.

    Error traces rank ahead of slow ones (that is what a flight
    recorder is for), then by root duration descending; ties break on
    trace id so the payload is deterministic.  Traces whose root lives
    in another registry (cross-component fragments) are skipped.
    """
    ranked: list[tuple[bool, float, int, Span, list[Span]]] = []
    for trace_id, spans in sorted(telemetry.spans.traces().items()):
        roots = [span for span in spans if span.parent_id is None]
        if not roots:
            continue
        root = roots[0]
        errored = any(span.status != "ok" for span in spans)
        ranked.append((errored, root.duration_s, trace_id, root, spans))
    ranked.sort(key=lambda entry: (not entry[0], -entry[1], entry[2]))
    traces = [{
        "trace": trace_id,
        "status": "error" if errored else "ok",
        "total_ms": round(duration_s * 1e3, 3),
        "spans": len(spans),
        "root": _span_tree(root, spans),
    } for errored, duration_s, trace_id, root, spans in ranked[:limit]]
    return {"traces": traces, "total_traces": len(ranked),
            "limit": limit}


class AdminServer:
    """The live admin plane on its own listening socket.

    Serves three endpoints over the HTTP/1.1 wire codec the cache path
    uses — but connection-close, one request per connection: the plane
    is idle most of the time and ``curl``/``urllib`` just work:

    * ``/metrics`` — Prometheus text exposition of every instrument
      (deterministic byte-for-byte on an idle stack);
    * ``/healthz`` — lifecycle JSON: 200 while ``serving``, 503 while
      ``starting``/``draining``/``stopped``, always carrying the state,
      bound endpoints, and in-flight counts;
    * ``/debug/traces`` — the N slowest/error traces as span trees
      (``?n=`` caps the count).

    Requests never mutate any instrument — a scrape observes the stack
    without perturbing the numbers it reports (admin activity goes to
    the structured log instead).  The server stays up through the
    drain so probes watch the 200 → 503 transition; the stack stops it
    last.
    """

    def __init__(self, stack: LiveStack) -> None:
        self._stack = stack
        self._server: asyncio.AbstractServer | None = None
        self._lock = asyncio.Lock()
        self.endpoint: tuple[str, int] | None = None
        self.requests_served = 0

    async def start(self, host: str = LIVE_HOST,
                    port: int = 0) -> tuple[str, int]:
        """Listen (``port`` 0 = ephemeral) and return the endpoint."""
        async with self._lock:
            server = await asyncio.start_server(self._serve, host, port)
            try:
                sockname = server.sockets[0].getsockname()
                self.endpoint = (sockname[0], sockname[1])
            except Exception:
                server.close()
                raise
            self._server = server
            return self.endpoint

    async def stop(self) -> None:
        async with self._lock:
            if self._server is not None:
                self._server.close()
                await self._server.wait_closed()
                self._server = None

    async def _serve(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        try:
            head = await read_head(reader)
            if head is None:
                # Connected and left without a byte (a port probe).
                return
            request = await read_request(reader, head)
            status, payload, content_type = self._route(request)
            writer.write(
                encode_payload_response(status, payload, content_type))
            await writer.drain()
            self.requests_served += 1
            self._stack.log.log("admin_request", path=request.url.path,
                                status=status, bytes=len(payload))
        except (HttpError, OSError) as err:
            self._stack.log.log("admin_error", level="warning",
                                error=str(err))
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass

    def _route(self, request: HttpRequest) -> tuple[int, bytes, str]:
        stack = self._stack
        path = request.url.path
        if path == "/metrics":
            text = render_prometheus(stack.telemetry)
            return 200, text.encode("utf-8"), PROM_CONTENT_TYPE
        if path == "/healthz":
            payload = self._health_payload()
            status = 200 if payload["ok"] else 503
            return status, _dumps(payload), "application/json"
        if path == "/debug/traces":
            limit = _query_int(request.url.query, "n",
                               DEFAULT_TRACE_LIMIT)
            return 200, _dumps(trace_payload(stack.telemetry, limit)), \
                "application/json"
        return 404, _dumps({
            "error": f"unknown admin path {path}",
            "paths": ["/metrics", "/healthz", "/debug/traces"],
        }), "application/json"

    def _health_payload(self) -> dict[str, object]:
        stack = self._stack
        spans, transport = stack.telemetry.spans, stack.transport
        gauge = stack.telemetry.gauge("live.in_flight")
        in_flight = sum(gauge.value(**dict(key))
                        for key in gauge.labelsets())
        return {
            "state": stack.state,
            "ok": stack.state == "serving",
            "endpoints": {role: list(endpoint) for role, endpoint
                          in sorted(stack.endpoints.items())},
            "in_flight": in_flight,
            "tasks_active": len(stack.engine.tasks),
            "requests_served": sum(server.requests_served
                                   for server in stack._servers),
            "watchdog": {"probes": stack.watchdog.probes,
                         "stalls": stack.watchdog.stalls},
            # Router CPU the requests served so far would have cost
            # (accounted, never slept: docs/live.md).
            "modelled_cpu_s": {
                node.name: node.cpu.busy_time
                for node in (stack.ap, stack.upstream, stack.edge,
                             stack.origin)},
            "spans": {"retained": len(spans), "capacity": spans.max_spans,
                      "dropped": spans.dropped},
            "connections": {"tcp_open": transport.tcp_open,
                            "tcp_connects": transport.tcp_connects,
                            "tcp_reuses": transport.tcp_reuses,
                            "udp_sockets": transport.udp_sockets},
        }


# ----------------------------------------------------------------------
# The `repro.cli live` entry point
# ----------------------------------------------------------------------

#: The demo catalog: a few app objects sized like the paper's workload.
_DEMO_OBJECTS = (
    ("http://demo-a.example/feed.json", 24 * 1024),
    ("http://demo-a.example/avatar.png", 96 * 1024),
    ("http://demo-b.example/bundle.js", 160 * 1024),
)
_DEMO_TTL_MIN = 5.0
_DEMO_PRIORITY = 2


def _demo_spec(url: str):
    from repro.core.annotations import CacheableSpec

    return CacheableSpec(url=url, priority=_DEMO_PRIORITY,
                         ttl_s=_DEMO_TTL_MIN * 60.0)


def _block_loop(seconds: float) -> None:
    """Deliberately block the event loop for ``seconds``.

    The watchdog's demo/test hook (``repro.cli live
    --inject-stall-ms``): a synchronous sleep inside the serving
    coroutine delays every pending callback — including the watchdog
    probe — exactly like an accidental blocking call would.  It is a
    synchronous helper, so ASYNC101 (blocking calls written inside an
    ``async def``) leaves it alone; production code must never call
    it.
    """
    time.sleep(seconds)


async def _run_stack(config: LiveStackConfig, demo_requests: int,
                     serve: bool, emit: _t.Callable[[str], None],
                     inject_stall_ms: float = 0.0) -> int:
    engine = WallClock()
    stack = LiveStack(engine, config=config)
    for url, size in _DEMO_OBJECTS:
        stack.host_object(url, size)
    endpoints = await stack.start()
    for role in sorted(endpoints):
        host, port = endpoints[role]
        emit(f"live: {role} on {host}:{port}")

    shutdown = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, shutdown.set)
        except NotImplementedError:  # pragma: no cover - non-POSIX loops
            pass

    try:
        client = stack.add_client("demo")
        for spec_url, _size in _DEMO_OBJECTS:
            client.register_spec(_demo_spec(spec_url))
        hits = 0
        for index in range(demo_requests):
            url, _size = _DEMO_OBJECTS[index % len(_DEMO_OBJECTS)]
            result = await stack.fetch(client, url)
            hits += int(result.source == "ap-hit")
            emit(f"live: fetch {url} -> {result.source} "
                 f"({result.total_latency_s * 1e3:.2f} ms)")
            requests = stack.telemetry.spans.finished("request")
            stack.log.log(
                "fetch", span=requests[-1] if requests else None,
                url=url, source=result.source,
                total_ms=round(result.total_latency_s * 1e3, 3))
        if demo_requests:
            emit(f"live: {hits}/{demo_requests} served from the AP "
                 f"cache")

        if inject_stall_ms > 0.0:
            _block_loop(inject_stall_ms / 1e3)
            # Yield so the now-overdue watchdog probe runs and records
            # the stall before the stack stops.
            await asyncio.sleep(0.05)
            emit(f"live: injected a {inject_stall_ms:.0f} ms loop "
                 f"stall ({stack.watchdog.stalls} counted)")

        if serve:
            emit("live: serving (SIGINT/SIGTERM to stop)")
            await shutdown.wait()
            emit("live: signal received, draining")
    finally:
        # The failure path flushes too: stop() exports spans/metrics/
        # logs even when the serve loop above raised (and stop()'s own
        # finally keeps that true when a drain fails).
        await stack.stop()
    engine.raise_unwaited()
    emit(f"live: drained, {stack.transport.udp_exchanges} udp / "
         f"{stack.transport.tcp_exchanges} tcp exchanges")
    from repro.telemetry.obs import live_health_violations

    violations = live_health_violations(stack.telemetry)
    for line in violations:
        emit(f"live: health bound broken: {line}")
    return 1 if violations else 0


def run_live(demo_requests: int = 6, serve: bool = False,
             spans_path: str = "", metrics_path: str = "",
             logs_path: str = "", metrics_port: int | None = None,
             drain_grace_s: float = 0.0,
             watchdog_interval_s: float = 0.25,
             inject_stall_ms: float = 0.0,
             emit: _t.Callable[[str], None] = print) -> int:
    """Serve the live stack; the ``repro.cli live`` implementation.

    Runs the demo request driver, then (with ``serve=True``) stays up
    until SIGINT/SIGTERM, drains, flushes telemetry, and returns 0 —
    or 1 when the run broke a live-health bound.
    ``metrics_port`` binds the admin plane (0 = ephemeral; the bound
    port is printed as ``live: admin/http on host:port``).
    """
    config = LiveStackConfig(spans_path=spans_path,
                             metrics_path=metrics_path,
                             logs_path=logs_path,
                             metrics_port=metrics_port,
                             drain_grace_s=drain_grace_s,
                             watchdog_interval_s=watchdog_interval_s)
    return asyncio.run(_run_stack(config, demo_requests, serve, emit,
                                  inject_stall_ms=inject_stall_ms))
