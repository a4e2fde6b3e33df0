"""Real loopback sockets behind the simulated transport interface.

The simulator's :class:`~repro.net.transport.Transport` models delay; in
a live deployment the network itself provides it.  This module swaps
only that one layer: :class:`LiveTransport` exposes the same
``udp_request`` / ``tcp_exchange`` generator interface, but each call
is one exchange on a real socket, so the unchanged protocol handlers —
the AP runtime, DNS services, HTTP servers — run on real packets.

Every socket is an ``asyncio`` protocol driven by the loop's callbacks;
no task or stream sits between a packet and the engine.  An exchange on
an open socket is an :class:`~repro.engine.events.Event` its protocol
triggers when the reply has arrived (or fails on a close, an error or a
timeout), which the handler's process ``yield``s directly; only opening
a socket is bridged from a coroutine
(:meth:`~repro.engine.wallclock.WallClock.from_awaitable`).  HTTP bytes
are cut into messages by the sans-IO :class:`~repro.httplib.wire.Framer`.
Each protocol's receive callback is timed by the engine's stall timer
(:func:`~repro.engine.wallclock.timed_callback`).

Server side, :class:`LiveUdpServer` and :class:`LiveHttpServer` feed
inbound datagrams/connections into a :class:`~repro.net.node.Node`'s
registered handlers, exactly where the simulated transport would have
dispatched: one engine process per datagram or request, whose callback
sends the reply.  The well-known port constants (``UDP_DNS_PORT``,
``TCP_HTTP_PORT``) remain the *handler-registry* keys; the real,
ephemeral OS ports live in the transport's endpoint map so the whole
stack can bind port 0.

Sockets are reused (docs/live.md, "Connection handling").  TCP
connections are persistent: the transport keeps idle ones per endpoint
and checks one out for exactly one exchange at a time (no pipelining);
the server serves a connection's requests one at a time, and bounds
what it buffers of an eager peer by pausing its reads.  UDP client
sockets are pooled the same way, one outstanding exchange each, and a
socket whose exchange timed out is closed rather than returned, so a
late reply can never reach a later exchange.

All live-health instruments are pre-registered by
:func:`register_live_instruments` so the live-health verdict
(:func:`repro.telemetry.obs.live_health_violations`) reads an honest
zero socket-error count on a clean run.
"""

from __future__ import annotations

import asyncio
import typing as _t

from repro.errors import HttpError, TransportError
from repro.engine.events import Event
from repro.engine.wallclock import WallClock, timed_callback
from repro.httplib.messages import HttpResponse
from repro.httplib.wire import (
    MAX_HEADER_BYTES,
    Framer,
    encode_request,
    encode_response,
    parse_request,
    parse_response,
)
# Called by nothing: ``bench/trace.py`` wraps these names in this
# module (and ``read_request`` in ``repro.engine.live``) until its
# wrappers move to the parsers above (ROADMAP.md item 5(a)).
from repro.httplib.wire import read_request, read_response  # noqa: F401
from repro.net.address import IPv4Address
from repro.net.node import Node, TCP_HTTP_PORT, UDP_DNS_PORT
from repro.telemetry.registry import NULL, Telemetry

__all__ = [
    "LIVE_HOST",
    "LiveTransport",
    "LiveUdpServer",
    "LiveHttpServer",
    "register_live_instruments",
]

#: Every live endpoint binds loopback; the stack is single-host.
LIVE_HOST = "127.0.0.1"

Endpoint = tuple[str, int]


def register_live_instruments(telemetry: Telemetry) -> None:
    """Pre-register the ``live.*`` health instruments.

    Called at stack construction — before any traffic — so the
    live-health verdict and the obs panel's live-health table read
    honest zeros rather than "missing" on runs that never erred.
    """
    telemetry.counter("live.socket_errors",
                      help="socket-level failures in the live stack, "
                           "by role")
    telemetry.counter("live.request_timeouts",
                      help="live UDP exchanges that timed out, by role")
    telemetry.gauge("live.in_flight",
                    help="requests currently inside live servers, "
                         "by server role")
    telemetry.gauge("live.tasks_active",
                    help="socket opens bridged as tasks currently "
                         "alive in the engine's owned set")
    telemetry.counter("live.loop_stalls",
                      help="loop callbacks that ran past the stall "
                           "threshold (docs/live.md)")


class LiveTransport:
    """The simulated transport interface over real loopback sockets.

    ``udp_request`` and ``tcp_exchange`` keep their generator form —
    protocol handlers still ``yield sim.process(transport...)`` — but
    the body is one socket exchange instead of modeled delays.
    Addresses are mapped to real ``(host, port)`` endpoints via
    :meth:`register_udp` / :meth:`register_tcp` as servers come up.

    The transport owns the client side of every socket: idle TCP
    connections and UDP sockets wait per endpoint for the next exchange
    and :meth:`close` (the stack's shutdown) closes them.
    """

    #: The live transport has no simulated topology behind it; callers
    #: that reach for ``transport.network`` (the HTTPS delay model) are
    #: sim-only paths.
    network = None

    def __init__(self, engine: WallClock,
                 telemetry: Telemetry = NULL,
                 udp_timeout_s: float = 1.0,
                 udp_retries: int = 3) -> None:
        self.sim = engine
        self.engine = engine
        self.udp_timeout_s = udp_timeout_s
        self.udp_retries = udp_retries
        self._udp: dict[str, Endpoint] = {}
        self._tcp: dict[str, Endpoint] = {}
        register_live_instruments(telemetry)
        self._socket_errors = telemetry.counter("live.socket_errors")
        self._request_timeouts = telemetry.counter("live.request_timeouts")
        self.udp_exchanges = 0
        self.tcp_exchanges = 0
        #: Idle (checked-in) sockets per endpoint, most recently used last.
        self._idle_tcp: dict[Endpoint, list[_ClientConnection]] = {}
        self._idle_udp: dict[Endpoint, list[_UdpSocket]] = {}
        #: Plain counters behind ``/healthz`` ``connections``: client
        #: sockets open now (idle or mid-exchange), TCP connections ever
        #: opened, and exchanges that found an idle one to reuse.
        self.tcp_open = 0
        self.udp_sockets = 0
        self.tcp_connects = 0
        self.tcp_reuses = 0

    # ------------------------------------------------------------------
    # Endpoint registry
    # ------------------------------------------------------------------
    def register_udp(self, address: "IPv4Address | str",
                     endpoint: Endpoint) -> None:
        """Map ``address`` (the node's identity) to a bound UDP socket."""
        self._udp[str(IPv4Address(address))] = endpoint

    def register_tcp(self, address: "IPv4Address | str",
                     endpoint: Endpoint) -> None:
        """Map ``address`` to a listening TCP socket."""
        self._tcp[str(IPv4Address(address))] = endpoint

    def _lookup(self, table: dict[str, Endpoint],
                address: object, proto: str) -> Endpoint:
        endpoint = table.get(str(IPv4Address(_t.cast(str, address))))
        if endpoint is None:
            raise TransportError(
                f"no live {proto} endpoint registered for {address}")
        return endpoint

    # ------------------------------------------------------------------
    # The Transport interface
    # ------------------------------------------------------------------
    def udp_request(self, src: str, dst_address: object, port: int,
                    payload: bytes):
        """Generator: send a datagram, return the response bytes."""
        endpoint = self._lookup(self._udp, dst_address, "udp")
        self.udp_exchanges += 1
        payload = bytes(payload)
        idle = self._idle_udp.setdefault(endpoint, [])
        attempts = 1 + max(0, self.udp_retries)
        for _attempt in range(attempts):
            if idle:
                sock = idle.pop()
            else:
                sock = _t.cast("_UdpSocket", (
                    yield self.engine.from_awaitable(
                        self._open_udp(endpoint))))
            try:
                reply = yield sock.exchange(payload, self.udp_timeout_s)
            except BaseException as err:
                # Closed, never returned: a late reply must die with
                # this socket instead of answering a later exchange.
                self._close_udp(sock)
                if isinstance(err, asyncio.TimeoutError):
                    self._request_timeouts.inc(role="udp-client")
                    continue
                if isinstance(err, OSError):
                    self._socket_errors.inc(role="udp-client")
                    raise TransportError(
                        f"datagram exchange with {endpoint} failed: {err}")
                raise
            idle.append(sock)
            return _t.cast(bytes, reply)
        raise TransportError(
            f"no reply from {endpoint} after {attempts} attempts")

    def tcp_exchange(self, src: str, dst_address: object, port: int,
                     request: object):
        """Generator: one HTTP exchange on a kept-alive connection."""
        endpoint = self._lookup(self._tcp, dst_address, "tcp")
        self.tcp_exchanges += 1
        payload = encode_request(_t.cast("_t.Any", request))
        idle = self._idle_tcp.setdefault(endpoint, [])
        while True:
            reused = bool(idle)
            if reused:
                connection = idle.pop()
                self.tcp_reuses += 1
            else:
                connection = _t.cast(
                    "_ClientConnection",
                    (yield self.engine.from_awaitable(
                        self._connect(endpoint))))
            try:
                response = yield connection.send(payload)
            except BaseException as err:
                self._close_tcp(connection)
                if reused and isinstance(err, ConnectionError):
                    # The server dropped the connection while it idled
                    # and nothing was served: send again — at the
                    # latest on a fresh connection, where a failure is
                    # final.
                    continue
                if isinstance(err, (OSError, HttpError)):
                    self._socket_errors.inc(role="tcp-client")
                    raise TransportError(
                        f"exchange with {endpoint} failed: {err}")
                raise
            idle.append(connection)
            return response

    def one_way(self, src: str, dst: str, size_bytes: int = 0):
        """Unsupported live: only the simulated HTTPS path models this."""
        raise TransportError(
            "the live transport cannot model one-way TLS trips; "
            "serve plain http:// URLs on the live stack")

    # ------------------------------------------------------------------
    # Opening and closing sockets
    # ------------------------------------------------------------------
    async def _open_udp(self, endpoint: Endpoint) -> "_UdpSocket":
        try:
            _transport, sock = await asyncio.get_running_loop(
                ).create_datagram_endpoint(
                    lambda: _UdpSocket(self.engine), remote_addr=endpoint)
        except OSError as err:
            self._socket_errors.inc(role="udp-client")
            raise TransportError(
                f"cannot open datagram socket to {endpoint}: {err}")
        self.udp_sockets += 1
        return sock

    def _close_udp(self, sock: "_UdpSocket") -> None:
        sock.transport.close()
        self.udp_sockets -= 1

    async def _connect(self, endpoint: Endpoint) -> "_ClientConnection":
        try:
            _transport, connection = await asyncio.get_running_loop(
                ).create_connection(
                    lambda: _ClientConnection(self.engine), *endpoint)
        except OSError as err:
            self._socket_errors.inc(role="tcp-client")
            raise TransportError(
                f"cannot connect to {endpoint}: {err}")
        self.tcp_connects += 1
        self.tcp_open += 1
        return connection

    def _close_tcp(self, connection: "_ClientConnection") -> None:
        connection.transport.close()
        self.tcp_open -= 1

    async def close(self) -> None:
        """Close every idle connection and socket (stack shutdown)."""
        for connections in self._idle_tcp.values():
            while connections:
                self._close_tcp(connections.pop())
        for sockets in self._idle_udp.values():
            while sockets:
                self._close_udp(sockets.pop())
        # A transport closes its socket on the next loop turn.
        await asyncio.sleep(0)


class _ClientConnection(asyncio.Protocol):
    """A pooled, kept-alive client connection: one exchange outstanding.

    :meth:`send` writes a request and returns the event its response
    succeeds.  A close before the response's first byte fails it with
    :class:`ConnectionResetError` (the transport's retry-once case), a
    close inside the response or a malformed one with
    :class:`HttpError`.
    """

    transport: asyncio.Transport

    def __init__(self, engine: WallClock) -> None:
        self._engine = engine
        self._framer = Framer(parse_response)
        self._exchange: Event | None = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = _t.cast(asyncio.Transport, transport)

    def send(self, payload: bytes) -> Event:
        """Write one request; the event succeeds with its response."""
        exchange = self._exchange = self._engine.event()
        if self.transport.is_closing():
            self._fail(ConnectionResetError("closed while idle"))
        else:
            self.transport.write(payload)
        return exchange

    @timed_callback
    def data_received(self, data: bytes) -> None:
        exchange = self._exchange
        if exchange is None:
            # Bytes nobody asked for: the stream is out of step.
            self.transport.close()
            return
        try:
            self._framer.feed(data)
            message = self._framer.next()
        except HttpError as err:
            self._fail(err)
            return
        if message is not None:
            self._exchange = None
            exchange.succeed(message[0])

    def connection_lost(self, exc: Exception | None) -> None:
        if self._framer.at_boundary:
            self._fail(ConnectionResetError(
                "closed before the first response byte"))
        else:
            self._fail(HttpError("connection closed mid-message"))

    def _fail(self, failure: BaseException) -> None:
        exchange, self._exchange = self._exchange, None
        if exchange is not None:
            exchange.fail(failure)


class _UdpSocket(asyncio.DatagramProtocol):
    """A pooled, connected client socket: one exchange outstanding."""

    transport: asyncio.DatagramTransport

    def __init__(self, engine: WallClock) -> None:
        self._engine = engine
        self._exchange: Event | None = None
        self._timer: asyncio.TimerHandle | None = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = _t.cast(asyncio.DatagramTransport, transport)

    def exchange(self, payload: bytes, timeout_s: float) -> Event:
        """Send ``payload``; the event succeeds with the reply, or fails
        with :class:`asyncio.TimeoutError` after ``timeout_s``."""
        exchange = self._exchange = self._engine.event()
        self._timer = self._engine.loop.call_later(
            timeout_s, self._settle, None, asyncio.TimeoutError())
        self.transport.sendto(payload)
        return exchange

    @timed_callback
    def datagram_received(self, data: bytes, addr: Endpoint) -> None:
        # With no exchange outstanding the datagram answers nobody's
        # question (a duplicate, a stray): dropped.
        self._settle(data, None)

    def error_received(self, exc: Exception) -> None:
        self._settle(None, exc)

    def _settle(self, reply: bytes | None,
                failure: BaseException | None) -> None:
        exchange, self._exchange = self._exchange, None
        if exchange is None:
            return
        _t.cast(asyncio.TimerHandle, self._timer).cancel()
        if failure is None:
            exchange.succeed(reply)
        else:
            exchange.fail(failure)


class _ServerBase:
    """In-flight bookkeeping and drain logic shared by both servers.

    What is counted is *requests* — from a whole request (or datagram)
    to its reply — never connections: an idle kept-alive
    connection holds up neither ``live.in_flight`` nor :meth:`drain`.
    """

    role = "server"

    def __init__(self, engine: WallClock, node: Node,
                 telemetry: Telemetry = NULL) -> None:
        self.engine = engine
        self.node = node
        register_live_instruments(telemetry)
        self._in_flight = telemetry.gauge("live.in_flight")
        self._socket_errors = telemetry.counter("live.socket_errors")
        self._active = 0
        #: Set while no request is in flight; what :meth:`drain` awaits.
        self._quiet = asyncio.Event()
        self._quiet.set()
        #: Serializes start/stop: both write the listening-socket slot,
        #: and interleaving them at an await point would leak it.
        self._lifecycle_lock = asyncio.Lock()
        self.requests_served = 0

    def _enter(self) -> None:
        self._active += 1
        self._quiet.clear()
        self._in_flight.add(1, role=self.role)

    def _exit(self) -> None:
        self._active -= 1
        if not self._active:
            self._quiet.set()
        self._in_flight.add(-1, role=self.role)

    async def drain(self, timeout_s: float = 5.0) -> None:
        """Wait for every in-flight request to finish."""
        try:
            await asyncio.wait_for(self._quiet.wait(), timeout_s)
        except asyncio.TimeoutError:
            pass


class LiveUdpServer(_ServerBase):
    """Feeds real datagrams into a node's registered UDP handler.

    The handler generator (for the AP: ``ApRuntime._handle``) runs as
    an engine process; its return value, the reply payload, is sent
    back to the querier.
    """

    role = "udp"

    def __init__(self, engine: WallClock, node: Node,
                 telemetry: Telemetry = NULL) -> None:
        super().__init__(engine, node, telemetry)
        self._transport: asyncio.DatagramTransport | None = None

    async def start(self, host: str = LIVE_HOST,
                    port: int = 0) -> Endpoint:
        """Bind (``port`` 0 = ephemeral) and return the bound endpoint."""
        loop = asyncio.get_running_loop()
        async with self._lifecycle_lock:
            transport, _protocol = await loop.create_datagram_endpoint(
                lambda: _UdpServerProtocol(self), local_addr=(host, port))
            try:
                sockname = transport.get_extra_info("sockname")
                endpoint = (sockname[0], sockname[1])
            except Exception:
                # Startup failed after the bind: close the socket so a
                # failed bring-up leaks no fd.
                transport.close()
                raise
            self._transport = transport
        return endpoint

    def _dispatch(self, data: bytes, addr: Endpoint) -> None:
        source = IPv4Address(addr[0])
        handler = self.node.handle_udp(UDP_DNS_PORT, data, source)
        process = self.engine.process(_t.cast("_t.Any", handler))
        self._enter()
        _t.cast("list[_t.Any]", process.callbacks).append(
            lambda done: self._finished(done, addr))

    def _finished(self, process: Event, addr: Endpoint) -> None:
        self._exit()
        if not process.ok:
            # DNS handlers answer SERVFAIL themselves; anything that
            # escapes is a transport/codec defect worth counting.
            self._socket_errors.inc(role=self.role)
            return
        reply = process.value
        if reply is not None and self._transport is not None:
            self._transport.sendto(_t.cast(bytes, reply), addr)
        self.requests_served += 1

    async def stop(self, drain_timeout_s: float = 5.0) -> None:
        """Stop accepting datagrams, then drain in-flight handlers."""
        async with self._lifecycle_lock:
            if self._transport is not None:
                self._transport.close()
                self._transport = None
        await self.drain(drain_timeout_s)


class _UdpServerProtocol(asyncio.DatagramProtocol):
    def __init__(self, server: LiveUdpServer) -> None:
        self._server = server
        self._engine = server.engine

    @timed_callback
    def datagram_received(self, data: bytes, addr: Endpoint) -> None:
        self._server._dispatch(data, addr)


class LiveHttpServer(_ServerBase):
    """Feeds real HTTP/1.1 connections into a node's TCP handler.

    Each accepted connection is a :class:`_ServerConnection` serving
    its requests one at a time (each mirroring one simulated
    ``tcp_exchange``) until the peer closes it or the server stops.
    Error contract: a close between requests is the normal, silent end
    of a connection; a close mid-message or a malformed head is
    answered ``400`` and a handler that raises ``500`` — both counted
    in ``live.socket_errors`` (``role="http"``), both closing the
    connection; nothing escapes to the event loop.
    """

    role = "http"

    def __init__(self, engine: WallClock, node: Node,
                 telemetry: Telemetry = NULL) -> None:
        super().__init__(engine, node, telemetry)
        self._server: asyncio.AbstractServer | None = None
        #: Every open connection, so that :meth:`stop` can close them.
        self._connections: set[_ServerConnection] = set()
        self.connections_accepted = 0

    async def start(self, host: str = LIVE_HOST,
                    port: int = 0) -> Endpoint:
        """Listen (``port`` 0 = ephemeral) and return the endpoint."""
        loop = asyncio.get_running_loop()
        async with self._lifecycle_lock:
            server = await loop.create_server(
                lambda: _ServerConnection(self), host, port)
            try:
                sockname = server.sockets[0].getsockname()
                endpoint = (sockname[0], sockname[1])
            except Exception:
                # Startup failed after the listen socket came up: close
                # it so a failed bring-up leaks no fd.
                server.close()
                raise
            self._server = server
        return endpoint

    def _refusal(self, status: int) -> bytes:
        """Count a failed request; the response that closes its connection."""
        self._socket_errors.inc(role=self.role)
        return encode_response(HttpResponse(status, {"connection": "close"}))

    async def stop(self, drain_timeout_s: float = 5.0) -> None:
        """Stop accepting, drain in-flight requests, close what is left."""
        async with self._lifecycle_lock:
            server, self._server = self._server, None
            if server is not None:
                server.close()
        await self.drain(drain_timeout_s)
        # Whatever is still open idles between requests (or outlived
        # the drain).  A close flushes what was written first; a peer
        # that has not read it within the drain timeout is cut off.
        for connection in list(self._connections):
            connection.transport.close()
        await asyncio.sleep(0)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + drain_timeout_s
        while self._connections and loop.time() < deadline:
            await asyncio.sleep(0.01)
        for connection in list(self._connections):
            connection.transport.abort()
        if self._connections:
            await asyncio.sleep(0)
        if server is not None:
            await server.wait_closed()


class _ServerConnection(asyncio.Protocol):
    """One accepted connection, its requests served one at a time.

    Received bytes go to a :class:`Framer`; each whole request starts
    one handler process whose callback writes the encoded response and
    takes the next request.  Backpressure bounds what an eager peer
    costs: while the transport is paused for writing no next request
    is served, and once more than :data:`MAX_HEADER_BYTES` wait in the
    framer reading pauses too, until serving has taken them down again.
    """

    transport: asyncio.Transport

    def __init__(self, server: LiveHttpServer) -> None:
        self._server = server
        self._engine = server.engine
        self._framer = Framer(parse_request)
        self._source = IPv4Address(LIVE_HOST)
        #: A request's handler process is running.
        self._serving = False
        self._write_paused = False
        self._read_paused = False
        #: The peer half-closed: end at the next message boundary.
        self._eof = False

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = _t.cast(asyncio.Transport, transport)
        peer = transport.get_extra_info("peername") or (LIVE_HOST, 0)
        self._source = IPv4Address(peer[0])
        self._server._connections.add(self)
        self._server.connections_accepted += 1

    def connection_lost(self, exc: Exception | None) -> None:
        self._server._connections.discard(self)
        if exc is not None:
            # The peer vanished (a reset, a broken pipe).
            self._server._socket_errors.inc(role=self._server.role)

    @timed_callback
    def data_received(self, data: bytes) -> None:
        self._framer.feed(data)
        self._serve_next()

    def eof_received(self) -> bool:
        self._eof = True
        self._serve_next()
        # Keep the write side open for a response still being served.
        return True

    def pause_writing(self) -> None:
        self._write_paused = True

    def resume_writing(self) -> None:
        self._write_paused = False
        self._serve_next()

    def _serve_next(self) -> None:
        """Start the next request if the connection is free for it,
        then pause or resume reading to match what is buffered."""
        if not (self._serving or self._write_paused
                or self.transport.is_closing()):
            self._start_next()
        held = self._framer.buffered > MAX_HEADER_BYTES
        if held != self._read_paused:
            self._read_paused = held
            if held:
                self.transport.pause_reading()
            else:
                self.transport.resume_reading()

    def _start_next(self) -> None:
        server = self._server
        try:
            message = self._framer.next()
        except HttpError:
            self._refuse(400)
            return
        if message is None:
            if self._eof:
                if self._framer.at_boundary:
                    self.transport.close()
                else:
                    self._refuse(400)
            return
        self._serving = True
        server._enter()
        try:
            handler = server.node.handle_tcp(TCP_HTTP_PORT, message[0],
                                             self._source)
            process = server.engine.process(_t.cast("_t.Any", handler))
        except Exception:
            self._answered(None)
            return
        _t.cast("list[_t.Any]", process.callbacks).append(self._answered)

    def _answered(self, process: Event | None) -> None:
        """Write the handler's response — or, if it raised, a 500."""
        server = self._server
        server._exit()
        self._serving = False
        payload = None
        if process is not None and process.ok:
            try:
                payload = encode_response(_t.cast("_t.Any", process.value))
            except Exception:
                pass
        if payload is None:
            # The boundary that keeps the listener running: whatever a
            # protocol handler raises is the client's 500, counted.
            self._refuse(500)
            return
        server.requests_served += 1
        if not self.transport.is_closing():
            self.transport.write(payload)
        self._serve_next()

    def _refuse(self, status: int) -> None:
        payload = self._server._refusal(status)
        if not self.transport.is_closing():
            self.transport.write(payload)
            self.transport.close()
