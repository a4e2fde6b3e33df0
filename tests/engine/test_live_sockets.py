"""Socket reuse on the live engine: kept-alive TCP, pooled UDP, shutdown.

The contract (docs/live.md, "Connection handling"): a TCP connection is
checked out for exactly one exchange and returned after a complete
response, so sequential traffic rides one connection and ``n``
concurrent exchanges open at most ``n``; a reused connection the server
had dropped is replaced without an error; UDP client sockets are pooled
with one exchange outstanding, and a socket whose exchange timed out is
closed so that a late reply can never answer a later exchange;
``LiveStack.stop()`` closes every idle socket on both sides.

The counters read here (``tcp_connects``, ``connections_accepted``,
...) are plain ints — the hot path pays no telemetry call for them.
"""

import asyncio
import gc
import time

import pytest

from repro.core.annotations import CacheableSpec
from repro.engine.live import LiveStack
from repro.engine.livenet import LIVE_HOST, LiveHttpServer, LiveTransport
from repro.engine.wallclock import WallClock
from repro.errors import TransportError
from repro.telemetry.registry import Telemetry

# A socket left open surfaces as a ResourceWarning from a finalizer,
# which pytest reports as an unraisable-exception warning: both fail.
pytestmark = [
    pytest.mark.filterwarnings("error::ResourceWarning"),
    pytest.mark.filterwarnings(
        "error::pytest.PytestUnraisableExceptionWarning"),
]

URL = "http://sockets.example/obj.bin"


def _ap_http(stack: LiveStack) -> LiveHttpServer:
    return next(server for server in stack._servers
                if isinstance(server, LiveHttpServer)
                and server.node is stack.ap)


def _socket_errors(stack: LiveStack) -> float:
    return stack.telemetry.get("live.socket_errors").total()


async def _started_stack(clients: int = 1):
    engine = WallClock()
    stack = LiveStack(engine)
    stack.host_object(URL, 8 * 1024)
    await stack.start()
    devices = []
    for index in range(clients):
        client = stack.add_client(f"app{index}")
        client.register_spec(CacheableSpec(url=URL, priority=2,
                                           ttl_s=300.0))
        devices.append(client)
    return engine, stack, devices


def test_sequential_fetches_share_one_connection_concurrent_open_at_most_n():
    async def _scenario():
        engine, stack, devices = await _started_stack(clients=8)
        try:
            for _fetch in range(50):
                result = await stack.fetch(devices[0], URL)
                assert result.data_object.size_bytes == 8 * 1024
            ap_http = _ap_http(stack)
            transport = stack.transport
            assert ap_http.connections_accepted == 1
            # client -> AP and, for the one delegation, AP -> edge.
            assert transport.tcp_connects == 2
            assert transport.tcp_reuses == transport.tcp_exchanges - 2
            assert ap_http.requests_served == 50

            results = await asyncio.gather(*(stack.fetch(client, URL)
                                             for client in devices))
            assert all(result.cache_hit for result in results)
            assert 1 < ap_http.connections_accepted <= 8
            assert transport.tcp_open == transport.tcp_connects
            assert _socket_errors(stack) == 0
        finally:
            await stack.stop()
        engine.raise_unwaited()
        assert stack.transport.tcp_open == 0
        assert stack.transport.udp_sockets == 0

    asyncio.run(_scenario())


def test_server_restart_costs_one_reconnect_and_no_error():
    async def _scenario():
        engine, stack, (client,) = await _started_stack()
        try:
            await stack.fetch(client, URL)
            await stack.fetch(client, URL)
            ap_http = _ap_http(stack)
            connects = stack.transport.tcp_connects
            host, port = stack.endpoints["ap/http"]
            await ap_http.stop()
            # Same port: the pooled connection now leads to a closed
            # peer, which the client finds out by reusing it.
            await ap_http.start(host=host, port=port)

            result = await stack.fetch(client, URL)
            assert result.cache_hit
            assert stack.transport.tcp_connects == connects + 1
            assert _socket_errors(stack) == 0
        finally:
            await stack.stop()
        engine.raise_unwaited()

    asyncio.run(_scenario())


def test_fresh_connection_failure_is_an_error_not_a_retry():
    async def _scenario():
        engine, stack, (client,) = await _started_stack()
        try:
            await stack.fetch(client, URL)
            await _ap_http(stack).stop()
            with pytest.raises(TransportError):
                await stack.fetch(client, URL)
            errors = stack.telemetry.get("live.socket_errors")
            assert errors.value(role="tcp-client") == 1
        finally:
            await stack.stop()

    asyncio.run(_scenario())


def test_stop_with_idle_connections_on_every_tier_is_prompt_and_clean():
    async def _scenario():
        engine, stack, (client,) = await _started_stack()
        # Not preloaded at the edge: the first fetch crosses every tier
        # (client -> AP -> edge -> origin) and leaves a kept-alive
        # connection idle on each, plus two pooled UDP sockets.
        cold = "http://sockets.example/cold.bin"
        stack.host_object(cold, 4 * 1024, preload_edge=False)
        client.register_spec(CacheableSpec(url=cold, priority=2,
                                           ttl_s=300.0))
        await stack.fetch(client, cold)
        await stack.fetch(client, URL)
        http_servers = [server for server in stack._servers
                        if isinstance(server, LiveHttpServer)]
        assert all(len(server._connections) == 1
                   for server in http_servers)
        assert stack.transport.tcp_open == 3
        assert stack.transport.udp_sockets == 2
        # Idle connections are in flight for nobody.
        gauge = stack.telemetry.get("live.in_flight")
        assert gauge.value(role="http") == 0

        started = time.monotonic()
        await stack.stop()
        assert time.monotonic() - started < 0.5
        engine.raise_unwaited()
        assert len(engine.tasks) == 0
        assert all(not server._connections for server in http_servers)
        assert stack.transport.tcp_open == 0
        assert stack.transport.udp_sockets == 0
        # Every connection task has ended: only this one is left.
        assert asyncio.all_tasks() == {asyncio.current_task()}

    asyncio.run(_scenario())
    gc.collect()     # an unclosed socket would warn from its finalizer


# ----------------------------------------------------------------------
# UDP: pooled sockets, and what a timeout does to one
# ----------------------------------------------------------------------
class _ScriptedDnsServer(asyncio.DatagramProtocol):
    """Answers ``b"r:" + query`` — except the queries it is told to
    ignore, which it only remembers (to answer far too late)."""

    def __init__(self, ignore: set[bytes]) -> None:
        self.ignore = ignore
        self.seen: list[tuple[bytes, tuple[str, int]]] = []

    def connection_made(self, transport) -> None:
        self.transport = transport

    def datagram_received(self, data, addr) -> None:
        self.seen.append((data, addr))
        if data not in self.ignore:
            self.transport.sendto(b"r:" + data, addr)


async def _udp_rig(ignore: set[bytes]):
    loop = asyncio.get_running_loop()
    listener, server = await loop.create_datagram_endpoint(
        lambda: _ScriptedDnsServer(ignore), local_addr=(LIVE_HOST, 0))
    engine = WallClock()
    transport = LiveTransport(engine, telemetry=Telemetry(engine),
                              udp_timeout_s=0.05)
    transport.register_udp("10.0.0.53", listener.get_extra_info("sockname"))

    async def ask(query: bytes) -> bytes:
        return await engine.run_process(
            transport.udp_request("client", "10.0.0.53", 53, query))

    return listener, server, transport, ask


def test_udp_sockets_are_reused_and_strays_are_dropped():
    async def _scenario():
        listener, server, transport, ask = await _udp_rig(ignore=set())
        try:
            assert await ask(b"q1") == b"r:q1"
            assert await ask(b"q2") == b"r:q2"
            (_q1, first), (_q2, second) = server.seen
            assert first == second, "the second exchange reused the socket"
            assert transport.udp_sockets == 1
            # A datagram nobody asked for, sent to the idle socket: it
            # must not become the answer to the next question.
            listener.sendto(b"stray", first)
            await asyncio.sleep(0.01)
            assert await ask(b"q3") == b"r:q3"
            assert server.seen[-1][1] == first
        finally:
            await transport.close()
            listener.close()
        assert transport.udp_sockets == 0

    asyncio.run(_scenario())


def test_udp_timeout_closes_the_socket_so_a_late_reply_dies_with_it():
    async def _scenario():
        listener, server, transport, ask = await _udp_rig(ignore={b"q1"})
        try:
            # q1 is ignored the first time; the retry must not reuse the
            # socket a reply to the first attempt could still reach.
            asked = asyncio.ensure_future(ask(b"q1"))
            while not server.seen:
                await asyncio.sleep(0.005)
            server.ignore = set()
            assert await asked == b"r:q1"
            (_first, timed_out), (_retry, retried) = server.seen
            assert timed_out != retried, "the retry used a new socket"
            timeouts = transport._request_timeouts
            assert timeouts.value(role="udp-client") == 1
            assert transport.udp_sockets == 1

            # The answer to the first attempt, far too late.
            listener.sendto(b"r:late", timed_out)
            await asyncio.sleep(0.01)
            assert await ask(b"q2") == b"r:q2"
            assert server.seen[-1][1] == retried
        finally:
            await transport.close()
            listener.close()

    asyncio.run(_scenario())
