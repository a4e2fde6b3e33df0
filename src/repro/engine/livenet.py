"""Real loopback sockets behind the simulated transport interface.

The simulator's :class:`~repro.net.transport.Transport` models delay; in
a live deployment the network itself provides it.  This module swaps
only that one layer: :class:`LiveTransport` exposes the same
``udp_request`` / ``tcp_exchange`` generator interface, but each call
bridges into asyncio socket IO (:meth:`WallClock.from_awaitable`), so
the unchanged protocol handlers — the AP runtime, DNS services, HTTP
servers — run on real packets.

Server side, :class:`LiveUdpServer` and :class:`LiveHttpServer` feed
inbound datagrams/connections into a :class:`~repro.net.node.Node`'s
registered handlers, exactly where the simulated transport would have
dispatched.  The well-known port constants (``UDP_DNS_PORT``,
``TCP_HTTP_PORT``) remain the *handler-registry* keys; the real,
ephemeral OS ports live in the transport's endpoint map so the whole
stack can bind port 0.

Sockets are reused (docs/live.md, "Connection handling").  TCP
connections are persistent: the transport keeps idle ones per endpoint
and checks one out for exactly one exchange at a time (no pipelining);
the server loops over the requests of a connection.  UDP client sockets
are pooled the same way, one outstanding exchange each, and a socket
whose exchange timed out is closed rather than returned, so a late
reply can never reach a later exchange.

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
from repro.engine.wallclock import WallClock
from repro.httplib.messages import HttpResponse
from repro.httplib.wire import (
    encode_request,
    encode_response,
    read_head,
    read_request,
    read_response,
)
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
_Connection = tuple[asyncio.StreamReader, asyncio.StreamWriter]


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
                    help="bridged engine tasks currently alive in the "
                         "owned task set")
    telemetry.histogram("live.loop_lag_ms",
                        help="event-loop scheduling delay per watchdog "
                             "probe (docs/live.md)")
    telemetry.counter("live.loop_stalls",
                      help="watchdog probes delayed past the stall "
                           "threshold")


class LiveTransport:
    """The simulated transport interface over real loopback sockets.

    ``udp_request`` and ``tcp_exchange`` keep their generator form —
    protocol handlers still ``yield sim.process(transport...)`` — but
    the body is one bridged socket exchange instead of modeled delays.
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
        self._idle_tcp: dict[Endpoint, list[_Connection]] = {}
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
        response = yield self.engine.from_awaitable(
            self._udp_io(endpoint, bytes(payload)))
        return _t.cast(bytes, response)

    def tcp_exchange(self, src: str, dst_address: object, port: int,
                     request: object):
        """Generator: one HTTP exchange on a kept-alive connection."""
        endpoint = self._lookup(self._tcp, dst_address, "tcp")
        self.tcp_exchanges += 1
        response = yield self.engine.from_awaitable(
            self._tcp_io(endpoint, request))
        return response

    def one_way(self, src: str, dst: str, size_bytes: int = 0):
        """Unsupported live: only the simulated HTTPS path models this."""
        raise TransportError(
            "the live transport cannot model one-way TLS trips; "
            "serve plain http:// URLs on the live stack")

    # ------------------------------------------------------------------
    # Socket IO
    # ------------------------------------------------------------------
    async def _udp_io(self, endpoint: Endpoint, payload: bytes) -> bytes:
        loop = asyncio.get_running_loop()
        idle = self._idle_udp.setdefault(endpoint, [])
        attempts = 1 + max(0, self.udp_retries)
        for _attempt in range(attempts):
            sock = idle.pop() if idle else await self._open_udp(endpoint)
            waiter = sock.waiter = loop.create_future()
            timer = loop.call_later(self.udp_timeout_s, _expire, waiter)
            try:
                sock.transport.sendto(payload)
                reply = await waiter
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
            finally:
                timer.cancel()
            sock.waiter = None
            idle.append(sock)
            return reply
        raise TransportError(
            f"no reply from {endpoint} after {attempts} attempts")

    async def _open_udp(self, endpoint: Endpoint) -> "_UdpSocket":
        try:
            _transport, sock = await asyncio.get_running_loop(
                ).create_datagram_endpoint(_UdpSocket, remote_addr=endpoint)
        except OSError as err:
            self._socket_errors.inc(role="udp-client")
            raise TransportError(
                f"cannot open datagram socket to {endpoint}: {err}")
        self.udp_sockets += 1
        return sock

    def _close_udp(self, sock: "_UdpSocket") -> None:
        sock.transport.close()
        self.udp_sockets -= 1

    async def _tcp_io(self, endpoint: Endpoint,
                      request: object) -> HttpResponse:
        payload = encode_request(_t.cast("_t.Any", request))
        idle = self._idle_tcp.setdefault(endpoint, [])
        while True:
            reused = bool(idle)
            if reused:
                connection = idle.pop()
                self.tcp_reuses += 1
            else:
                connection = await self._connect(endpoint)
            try:
                response = await self._exchange(connection, payload)
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

    @staticmethod
    async def _exchange(connection: _Connection,
                        payload: bytes) -> HttpResponse:
        """One request out, one complete response back."""
        reader, writer = connection
        writer.write(payload)
        await writer.drain()
        head = await read_head(reader)
        if head is None:
            raise ConnectionResetError(
                "closed before the first response byte")
        return await read_response(reader, head)

    async def _connect(self, endpoint: Endpoint) -> _Connection:
        try:
            connection = await asyncio.open_connection(*endpoint)
        except OSError as err:
            self._socket_errors.inc(role="tcp-client")
            raise TransportError(
                f"cannot connect to {endpoint}: {err}")
        self.tcp_connects += 1
        self.tcp_open += 1
        return connection

    def _close_tcp(self, connection: _Connection) -> None:
        connection[1].close()
        self.tcp_open -= 1

    async def close(self) -> None:
        """Close every idle connection and socket (stack shutdown)."""
        for connections in self._idle_tcp.values():
            while connections:
                connection = connections.pop()
                self._close_tcp(connection)
                try:
                    await connection[1].wait_closed()
                except OSError:
                    pass
        for sockets in self._idle_udp.values():
            while sockets:
                self._close_udp(sockets.pop())
        # A datagram transport closes its socket on the next loop turn.
        await asyncio.sleep(0)


def _expire(waiter: "asyncio.Future[bytes]") -> None:
    if not waiter.done():
        waiter.set_exception(asyncio.TimeoutError())


class _UdpSocket(asyncio.DatagramProtocol):
    """A pooled, connected client socket: one exchange outstanding."""

    transport: asyncio.DatagramTransport
    #: The outstanding exchange's future; None while the socket idles.
    waiter: "asyncio.Future[bytes] | None" = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = _t.cast(asyncio.DatagramTransport, transport)

    def datagram_received(self, data: bytes, addr: Endpoint) -> None:
        # With no exchange outstanding the datagram answers nobody's
        # question (a duplicate, a stray): dropped.
        if self.waiter is not None and not self.waiter.done():
            self.waiter.set_result(data)

    def error_received(self, exc: OSError) -> None:
        if self.waiter is not None and not self.waiter.done():
            self.waiter.set_exception(exc)


class _ServerBase:
    """In-flight bookkeeping and drain logic shared by both servers.

    What is counted is *requests* — from a complete request head (or
    datagram) to its reply — never connections: an idle kept-alive
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

    The handler generator (for the AP: ``ApRuntime.respond`` via
    ``ForwardingDnsService._handle``) runs as an engine process; its
    return value, the reply payload, is sent back to the querier.
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
        self._enter()
        process = self.engine.process(self._respond(handler, addr))
        _t.cast("list[_t.Any]", process.callbacks).append(self._finished)

    def _respond(self, handler: _t.Generator[object, object, object],
                 addr: Endpoint):
        reply = yield self.engine.process(
            _t.cast("_t.Any", handler))
        if reply is not None and self._transport is not None:
            self._transport.sendto(_t.cast(bytes, reply), addr)
        self.requests_served += 1

    def _finished(self, process: Event) -> None:
        self._exit()
        if not process.ok:
            # DNS handlers answer SERVFAIL themselves; anything that
            # escapes is a transport/codec defect worth counting.
            self._socket_errors.inc(role=self.role)

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

    def datagram_received(self, data: bytes, addr: Endpoint) -> None:
        self._server._dispatch(data, addr)


class LiveHttpServer(_ServerBase):
    """Feeds real HTTP/1.1 connections into a node's TCP handler.

    A connection is served request after request (one at a time, each
    mirroring one simulated ``tcp_exchange``) until the peer closes it
    or the server stops.  Error contract: a close between requests is
    the normal, silent end of a connection; a close mid-message or a
    malformed head is answered ``400`` and a handler that raises
    ``500`` — both counted in ``live.socket_errors`` (``role="http"``),
    both closing the connection; nothing escapes to the event loop.
    """

    role = "http"

    def __init__(self, engine: WallClock, node: Node,
                 telemetry: Telemetry = NULL) -> None:
        super().__init__(engine, node, telemetry)
        self._server: asyncio.AbstractServer | None = None
        #: Every open connection's serving task and writer, so that
        #: :meth:`stop` can close the idle ones and wait them out.
        self._connections: dict["asyncio.Task[None]",
                                asyncio.StreamWriter] = {}
        self.connections_accepted = 0

    async def start(self, host: str = LIVE_HOST,
                    port: int = 0) -> Endpoint:
        """Listen (``port`` 0 = ephemeral) and return the endpoint."""
        async with self._lifecycle_lock:
            server = await asyncio.start_server(self._serve, host, port)
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

    async def _serve(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        task = _t.cast("asyncio.Task[None]", asyncio.current_task())
        self._connections[task] = writer
        self.connections_accepted += 1
        peer = writer.get_extra_info("peername") or (LIVE_HOST, 0)
        source = IPv4Address(peer[0])
        try:
            while await self._serve_next(reader, writer, source):
                pass
        except OSError:
            # The peer vanished mid-exchange.
            self._socket_errors.inc(role=self.role)
        finally:
            del self._connections[task]
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass

    async def _serve_next(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter,
                          source: IPv4Address) -> bool:
        """Serve the connection's next request; False ends the connection."""
        try:
            # Between requests the connection idles here: in flight for
            # nobody, and outside ``read_request``, which therefore
            # costs (and is measured as) parsing only.
            head = await read_head(reader)
        except HttpError:
            writer.write(self._refusal(400))
            await writer.drain()
            return False
        if head is None:
            return False
        self._enter()
        try:
            payload, served = await self._answer(reader, head, source)
            writer.write(payload)
            await writer.drain()
        finally:
            self._exit()
        if served:
            self.requests_served += 1
        return served

    async def _answer(self, reader: asyncio.StreamReader, head: bytes,
                      source: IPv4Address) -> tuple[bytes, bool]:
        """The encoded response to the request starting with ``head``,
        and whether the handler served it (else: a refusal)."""
        try:
            request = await read_request(reader, head)
        except HttpError:
            return self._refusal(400), False
        try:
            handler = self.node.handle_tcp(TCP_HTTP_PORT, request, source)
            response = await self.engine.wait(
                self.engine.process(_t.cast("_t.Any", handler)))
            return encode_response(_t.cast("_t.Any", response)), True
        except Exception:
            # The boundary that keeps the listener running: whatever a
            # protocol handler raises is the client's 500, counted.
            return self._refusal(500), False

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
        # the drain): closing it ends its task at the EOF.
        connections = dict(self._connections)
        for writer in connections.values():
            writer.close()
        if connections:
            await asyncio.wait(list(connections), timeout=drain_timeout_s)
        if server is not None:
            await server.wait_closed()
