"""Lifecycle hardening of the live stack: task ownership, bind failures
and concurrent start/stop.

The asyncio event loop keeps only *weak* references to tasks, so a
bridged socket exchange whose handle is dropped can be garbage-collected
mid-flight — requests then hang forever (the bug ASYNC102 lints for).
:class:`~repro.engine.wallclock.OwnedTaskSet` is the engine-side anchor;
the tests here pin its contract, the ``live.tasks_active`` gauge it
feeds, and the bind-failure cleanup paths: an occupied port must fail
the server (and a whole-stack bring-up) without leaking sockets or
leaving half-started state behind.
"""

import asyncio
import gc
import time

import pytest

from repro.core.annotations import CacheableSpec
from repro.engine.live import LiveStack
from repro.engine.livenet import (
    LIVE_HOST,
    LiveHttpServer,
    LiveUdpServer,
)
from repro.engine.wallclock import WallClock
from repro.net.address import IPv4Address
from repro.net.node import Node
from repro.telemetry.instruments import Gauge


# ----------------------------------------------------------------------
# Satellite: the owned task set (the ASYNC102 pattern, engine side)
# ----------------------------------------------------------------------
def test_owned_task_set_anchors_bridged_tasks():
    async def _scenario():
        engine = WallClock()
        gate = asyncio.Event()

        async def _exchange() -> int:
            await gate.wait()
            return 7

        event = engine.from_awaitable(_exchange())
        # The bridged task is anchored while in flight...
        assert len(engine.tasks) == 1
        gc.collect()
        gate.set()
        value = await engine.wait(event)
        assert value == 7
        # ...and the done callback discards it again.
        assert len(engine.tasks) == 0

    asyncio.run(_scenario())


def test_owned_task_set_mirrors_bound_gauge():
    async def _scenario():
        engine = WallClock()
        gauge = Gauge("live.tasks_active")
        engine.tasks.bind_gauge(gauge)
        assert gauge.value() == 0.0

        gate = asyncio.Event()

        async def _exchange() -> None:
            await gate.wait()

        event = engine.from_awaitable(_exchange())
        assert gauge.value() == 1.0
        gate.set()
        await engine.wait(event)
        assert gauge.value() == 0.0

    asyncio.run(_scenario())


def test_inflight_dns_exchange_survives_gc():
    """Forced ``gc.collect()`` mid-exchange must not kill the request.

    Before the owned set, the bridged ``_udp_io`` task behind the DNS
    piggyback was reachable only through the loop's weak reference — a
    collection at the wrong moment destroyed it mid-flight and the
    fetch hung.  This drives a real fetch, collects while the owned set
    holds in-flight work, and requires the fetch to complete anyway.
    """
    url = "http://gc-survivor.example/obj.bin"

    async def _scenario():
        engine = WallClock()
        stack = LiveStack(engine)
        stack.host_object(url, 8 * 1024)
        await stack.start()
        client = stack.add_client("gc")
        client.register_spec(CacheableSpec(url=url, priority=2,
                                           ttl_s=120.0))
        try:
            fetch = asyncio.ensure_future(stack.fetch(client, url))
            deadline = time.monotonic() + 5.0
            while len(engine.tasks) == 0 and not fetch.done():
                assert time.monotonic() < deadline, \
                    "no bridged task ever appeared in the owned set"
                await asyncio.sleep(0)
            gauge = stack.telemetry.get("live.tasks_active")
            if not fetch.done():
                # The stack's gauge mirrors the in-flight count live.
                assert isinstance(gauge, Gauge)
                assert gauge.value() >= 1.0
            gc.collect()
            result = await fetch
        finally:
            await stack.stop()
        engine.raise_unwaited()
        assert result.source == "ap-delegated"
        assert len(engine.tasks) == 0
        assert stack.telemetry.get("live.tasks_active").value() == 0.0

    asyncio.run(_scenario())


# ----------------------------------------------------------------------
# Satellite: bind failures must not leak sockets or half-started state
# ----------------------------------------------------------------------
def test_udp_server_occupied_port_fails_clean():
    async def _scenario():
        engine = WallClock()
        node = Node(engine, "dns", IPv4Address("10.0.0.53"))
        occupant = LiveUdpServer(engine, node)
        host, port = await occupant.start()
        rival = LiveUdpServer(engine, node)
        try:
            with pytest.raises(OSError):
                await rival.start(host=host, port=port)
            # The failed bring-up left no bound socket behind.
            assert rival._transport is None
            # And the server is still stoppable (no wedged lock/state).
            await rival.stop(0.0)
        finally:
            await occupant.stop(0.0)

    asyncio.run(_scenario())


def test_http_server_occupied_port_fails_clean():
    async def _scenario():
        engine = WallClock()
        node = Node(engine, "edge", IPv4Address("10.0.0.10"))
        occupant = LiveHttpServer(engine, node)
        host, port = await occupant.start()
        rival = LiveHttpServer(engine, node)
        try:
            with pytest.raises(OSError):
                await rival.start(host=host, port=port)
            assert rival._server is None
            await rival.stop(0.0)
        finally:
            await occupant.stop(0.0)

    asyncio.run(_scenario())


def test_stack_start_failure_stops_earlier_tiers(monkeypatch):
    """A tier that fails to bind rolls back every tier before it."""

    async def _scenario():
        engine = WallClock()
        stack = LiveStack(engine)
        failing = stack._servers[-1]

        async def _boom(host: str = LIVE_HOST, port: int = 0):
            raise OSError(98, "injected: address already in use")

        monkeypatch.setattr(failing, "start", _boom)
        with pytest.raises(OSError):
            await stack.start()
        assert stack.state == "starting"
        for server in stack._servers[:-1]:
            if isinstance(server, LiveUdpServer):
                assert server._transport is None
            else:
                assert server._server is None

    asyncio.run(_scenario())


# ----------------------------------------------------------------------
# Concurrent start/stop must not leak the listening socket
# ----------------------------------------------------------------------
def _listening(server):
    """The server's listening-socket slot (``None`` when closed)."""
    if isinstance(server, LiveUdpServer):
        return server._transport
    return server._server


@pytest.mark.parametrize("server_class", [LiveUdpServer, LiveHttpServer])
def test_concurrent_start_and_stop_leave_no_listening_socket(server_class):
    """``stop`` racing a ``start`` still in its bind must close what the
    bind opens: the lifecycle lock runs them one after the other."""

    async def _scenario():
        engine = WallClock()
        node = Node(engine, "ap", IPv4Address("10.0.0.1"))
        server = server_class(engine, node)
        try:
            await asyncio.gather(server.start(), server.stop(0.0))
            assert _listening(server) is None
        finally:
            await server.stop(0.0)

    asyncio.run(_scenario())


def test_concurrent_stack_start_and_stop_leave_nothing_running():
    """The same race one level up: the stack's own lifecycle lock keeps
    ``stop`` from running between the binds, where it would close the
    servers but leave the lag watchdog that ``start`` arms last."""

    async def _scenario():
        stack = LiveStack(WallClock())
        try:
            await asyncio.gather(stack.start(), stack.stop())
            assert stack.state == "stopped"
            assert not stack.watchdog.running
            assert [_listening(server) for server in stack._servers] == \
                [None] * len(stack._servers)
        finally:
            stack.watchdog.stop()
            for server in stack._servers:
                await server.stop(0.0)

    asyncio.run(_scenario())
