"""The stall timer: every loop callback the live stack runs is timed.

A callback past ``STALL_THRESHOLD_MS`` holds up every fetch waiting
behind it, so it bumps ``live.loop_stalls`` and breaks the live-health
verdict (docs/live.md).  These tests block the loop where a real
defect would — in a socket callback, in a handler step an engine burst
runs — and check that ``live`` and ``parity`` fail on it.
"""

import asyncio
import re
import time

import pytest

from repro.core.ap_runtime import ApRuntime
from repro.engine.live import run_live
from repro.engine.livenet import LiveUdpServer
from repro.engine.parity import run_parity
from repro.engine.wallclock import (
    STALL_THRESHOLD_MS,
    WallClock,
    timed_callback,
)
from repro.telemetry.registry import Telemetry

#: Longer than the threshold, by a margin a loaded host cannot eat.
STALL_S = 0.3


def _blocking(_event):
    time.sleep(STALL_S)


def test_bursts_timed_events_and_protocol_callbacks_are_each_timed():
    async def _scenario():
        engine = WallClock()
        # Unbound, the timer still keeps the longest callback.
        await engine.wait(engine.timeout(0.0))
        assert 0.0 < engine.longest_callback_ms < STALL_THRESHOLD_MS
        stalls = Telemetry().counter("live.loop_stalls")
        engine.bind_stall_counter(stalls)

        burst = engine.timeout(0.0)
        burst.callbacks.append(_blocking)
        await engine.wait(burst)
        assert stalls.total() == 1
        assert engine.longest_callback_ms >= STALL_S * 1e3

        timed = engine.timeout(0.01)  # dispatched by its call_later
        timed.callbacks.append(_blocking)
        await engine.wait(timed)
        assert stalls.total() == 2

        class _Protocol:
            _engine = engine

            @timed_callback
            def data_received(self, data):
                time.sleep(STALL_S)
                raise RuntimeError("a callback that raises is timed too")

        with pytest.raises(RuntimeError):
            _Protocol().data_received(b"")
        assert stalls.total() == 3

        # Short callbacks move nothing.
        await engine.wait(engine.timeout(0.0))
        await engine.wait(engine.timeout(0.001))
        assert stalls.total() == 3

    asyncio.run(_scenario())


def _stalls_reported(lines):
    """``live.loop_stalls`` from the broken-bound line ``live`` prints."""
    for line in lines:
        match = re.fullmatch(
            r"live: health bound broken: live\.loop_stalls = (\d+) > 0",
            line)
        if match:
            return int(match.group(1))
    return 0


def _slow_udp_dispatch(monkeypatch):
    """A 300 ms sleep at the top of the UDP servers' socket callback."""
    dispatch = LiveUdpServer._dispatch

    def _slow(self, data, addr):
        time.sleep(STALL_S)
        dispatch(self, data, addr)

    monkeypatch.setattr(LiveUdpServer, "_dispatch", _slow)


def test_a_stalled_socket_callback_fails_live(monkeypatch):
    _slow_udp_dispatch(monkeypatch)
    lines = []
    assert run_live(demo_requests=2, emit=lines.append) == 1
    assert _stalls_reported(lines) >= 1


def test_a_stalled_handler_step_fails_live(monkeypatch):
    handle = ApRuntime._handle

    def _slow(self, payload, source):
        time.sleep(STALL_S)  # runs inside the engine burst
        return (yield from handle(self, payload, source))

    monkeypatch.setattr(ApRuntime, "_handle", _slow)
    lines = []
    assert run_live(demo_requests=2, emit=lines.append) == 1
    assert _stalls_reported(lines) >= 1


def test_a_stalled_socket_callback_fails_parity_on_health(monkeypatch):
    _slow_udp_dispatch(monkeypatch)
    tables, code = run_parity(quick=True, seed=0, emit=lambda line: None)
    assert code == 1
    health = tables[-1]
    assert any(note.startswith("VIOLATION: live.loop_stalls = ")
               for note in health.notes)
