"""The real-time engine: the :class:`Scheduler` base on an asyncio loop.

:class:`WallClock` subclasses the same base as
:class:`repro.sim.kernel.Simulator`, but ``now`` is the host's monotonic
clock (seconds since the engine was created) and ``_schedule`` puts
each event on the loop: a timed one through ``loop.call_later``, a
zero-delay one on the engine's own FIFO, which a single ``call_soon``
per burst drains (below).  The event primitives in
:mod:`repro.engine.events` are reused unchanged, so any generator-based
component — the AP runtime, the DNS services, the HTTP tiers — runs on
real time without modification.  The one thing real time does *not*
spend is modelled service time (``spends_modelled_time = False``): a
``ServiceQueue`` hold is accounted, never slept.

Two bridges connect the generator world to asyncio:

* :meth:`WallClock.from_awaitable` wraps a coroutine as an
  :class:`~repro.engine.events.Event` a process can ``yield`` — the
  live transport uses it only to open a socket; an exchange on an open
  one is an event its protocol triggers directly.
* :meth:`WallClock.wait` awaits an event from a coroutine — this is how
  a driver awaits a scenario or a fetch.

Scheduling-order contract (documented divergence from the simulator):
the simulator breaks same-instant ties by priority then insertion
order, so its ``run(until=horizon)`` stop preempts the events due at
the horizon; the wall clock has no such lane.  Its zero-delay events
form **bursts**: the first one posts a single ``call_soon``, and that
loop turn dispatches every event queued until the queue is empty —
those scheduled meanwhile included, in FIFO order — ahead of any
asyncio callback queued in between.  A burst is never dispatched
inline, so a process still takes callbacks after ``process()`` returns,
and a callback that raises reaches the loop's exception handler without
stranding the events behind it.  Nothing in the served stack relies on
the preemption.

The stall timer: every loop callback the live stack runs — a burst,
a timed event, a socket protocol's ``data_received`` /
``datagram_received`` (:func:`timed_callback`) — is timed with two
host-clock reads.  The engine keeps the longest in
:attr:`WallClock.longest_callback_ms`, and one longer than
:data:`STALL_THRESHOLD_MS` bumps the bound stall counter
(``live.loop_stalls``, a live-health bound); nothing else is recorded
per callback.

This is the **only** module in the library that reads the host clock
— for ``engine.now`` and the stall timer — which is why
``[tool.repro-lint] wallclock-allow`` lists it; everything downstream
takes time from ``engine.now`` and stays engine-agnostic.
"""

from __future__ import annotations

import asyncio
import collections
import functools
import typing as _t
from time import monotonic

from repro.errors import SimulationError
from repro.engine.api import Scheduler
from repro.engine.events import Event

__all__ = ["OwnedTaskSet", "STALL_THRESHOLD_MS", "WallClock",
           "timed_callback"]


class _TaskGauge(_t.Protocol):  # pragma: no cover - typing only
    def set(self, value: float, **labels: object) -> None: ...


class _StallCounter(_t.Protocol):  # pragma: no cover - typing only
    def inc(self, amount: float = 1.0, **labels: object) -> None: ...


#: A loop callback that runs longer than this is a stall: every fetch
#: waiting behind it is late by as much (docs/live.md).
STALL_THRESHOLD_MS = 250.0

_Callback = _t.TypeVar("_Callback", bound=_t.Callable[..., None])


def timed_callback(method: _Callback) -> _Callback:
    """Time a protocol's loop callback on its ``_engine``'s stall timer."""

    @functools.wraps(method)
    def timed(self: _t.Any, *args: object) -> None:
        start = monotonic()
        try:
            method(self, *args)
        finally:
            self._engine._clocked(start)

    return _t.cast(_Callback, timed)


class OwnedTaskSet:
    """Strong references to in-flight asyncio tasks.

    The event loop keeps only *weak* task references, so a spawned task
    whose handle is dropped is eligible for garbage collection
    mid-flight — the failure mode ASYNC102 flags.  This is the
    sanctioned pattern: :meth:`hold` anchors the task until its done
    callback discards it again.  A bound gauge (``live.tasks_active``)
    tracks the live count for the obs panel.
    """

    def __init__(self) -> None:
        self._tasks: set["asyncio.Task[object]"] = set()
        self._gauge: _TaskGauge | None = None

    def bind_gauge(self, gauge: _TaskGauge) -> None:
        """Mirror ``len(self)`` into ``gauge`` from now on."""
        self._gauge = gauge
        gauge.set(float(len(self._tasks)))

    def hold(self, task: "asyncio.Task[object]") -> "asyncio.Task[object]":
        """Anchor ``task`` until it completes; returns it unchanged."""
        self._tasks.add(task)
        task.add_done_callback(self._discard)
        if self._gauge is not None:
            self._gauge.set(float(len(self._tasks)))
        return task

    def _discard(self, task: "asyncio.Task[object]") -> None:
        self._tasks.discard(task)
        if self._gauge is not None:
            self._gauge.set(float(len(self._tasks)))

    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, task: object) -> bool:
        return task in self._tasks


class WallClock(Scheduler):
    """Drives the engine seam with real time on an asyncio event loop.

    Must be created while an asyncio loop is running (or be handed one
    explicitly): every ``_schedule`` call lands on that loop.  ``now``
    counts wall seconds since construction, so spans and timeouts read
    exactly like their simulated counterparts, just jittery.
    """

    #: Modelled service times are accounted, never slept: the host's
    #: real CPU already pays the real cost of every request.
    spends_modelled_time = False

    def __init__(self, loop: asyncio.AbstractEventLoop | None = None) -> None:
        if loop is None:
            try:
                loop = asyncio.get_running_loop()
            except RuntimeError:
                raise SimulationError(
                    "WallClock needs a running asyncio event loop; create "
                    "it inside asyncio.run(...) or pass loop= explicitly")
        super().__init__()
        self._loop = loop
        self._epoch = monotonic()
        #: Exceptions from failed events nobody waited for.  The
        #: simulator raises these out of ``run``; an asyncio callback
        #: has no caller to raise into, so they are collected here and
        #: re-raised by :meth:`raise_unwaited` (the live stack checks on
        #: shutdown, the parity harness after each run).
        self.unwaited_failures: list[BaseException] = []
        #: Strong references to bridged tasks (the loop keeps only weak
        #: ones, so an in-flight task could otherwise be GC'd).
        self.tasks = OwnedTaskSet()
        #: The current burst: zero-delay events awaiting dispatch, FIFO.
        self._ready: collections.deque[Event] = collections.deque()
        #: Whether a ``call_soon(self._drain)`` is pending or running.
        self._burst_posted = False
        #: The stall timer: the longest loop callback so far (ms), and
        #: the counter a callback over :data:`STALL_THRESHOLD_MS` bumps.
        self.longest_callback_ms = 0.0
        self._stalls: _StallCounter | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Wall seconds since this engine was created."""
        return monotonic() - self._epoch

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        """The asyncio loop this engine schedules on."""
        return self._loop

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        if delay > 0.0:
            self._loop.call_later(delay, self._fire, event)
            return
        self._ready.append(event)
        if not self._burst_posted:
            self._burst_posted = True
            self._loop.call_soon(self._drain)

    def _drain(self) -> None:
        """Dispatch the burst, events queued while it runs included."""
        start = monotonic()
        ready, dispatch = self._ready, self._dispatch
        try:
            while ready:
                dispatch(ready.popleft())
        finally:
            # Empty unless a callback raised: its exception goes on to
            # the loop's handler, the rest of the burst to a new turn.
            if ready:
                self._loop.call_soon(self._drain)
            else:
                self._burst_posted = False
            self._clocked(start)

    def _fire(self, event: Event) -> None:
        """Dispatch a timed event (its ``call_later`` callback)."""
        start = monotonic()
        try:
            self._dispatch(event)
        finally:
            self._clocked(start)

    def _dispatch(self, event: Event) -> None:
        """Process one triggered event (the loop-callback half of step)."""
        self.events_processed += 1
        callbacks = event.callbacks
        event.callbacks = None
        if callbacks:
            for callback in callbacks:
                callback(event)
        elif not event._ok:
            # A failed event nobody waited for must not pass silently —
            # but raising inside a loop callback would only reach the
            # loop's exception handler.  Park it for raise_unwaited().
            self.unwaited_failures.append(
                _t.cast(BaseException, event._value))

    # ------------------------------------------------------------------
    # The stall timer
    # ------------------------------------------------------------------
    def bind_stall_counter(self, counter: _StallCounter) -> None:
        """Bump ``counter`` for every stalled callback from now on."""
        self._stalls = counter

    def _clocked(self, start: float) -> None:
        """Close the timing of one loop callback that began at ``start``."""
        took_ms = (monotonic() - start) * 1e3
        if took_ms > self.longest_callback_ms:
            self.longest_callback_ms = took_ms
        if took_ms > STALL_THRESHOLD_MS and self._stalls is not None:
            self._stalls.inc()

    def raise_unwaited(self) -> None:
        """Re-raise the first failure no process or waiter consumed."""
        if self.unwaited_failures:
            raise self.unwaited_failures[0]

    # ------------------------------------------------------------------
    # asyncio bridges
    # ------------------------------------------------------------------
    def from_awaitable(self, awaitable:
                       _t.Coroutine[object, object, object]) -> Event:
        """Wrap a coroutine as an event a process can ``yield``.

        The coroutine runs as an asyncio task; its result succeeds the
        event (its exception fails it), waking whatever process parked
        on the event.
        """
        event = Event(self)
        # The loop holds only weak references to tasks; the owned set
        # anchors this one until it completes or the GC may destroy it
        # mid-flight.
        task = self.tasks.hold(self._loop.create_task(awaitable))

        def _finish(done: "asyncio.Task[object]") -> None:
            if done.cancelled():
                event.fail(SimulationError("bridged task was cancelled"))
                return
            failure = done.exception()
            if failure is not None:
                event.fail(failure)
            else:
                event.succeed(done.result())

        task.add_done_callback(_finish)
        return event

    async def wait(self, event: Event) -> object:
        """Await an event from coroutine land, returning its value.

        The inverse bridge of :meth:`from_awaitable`: used by drivers
        to await a fetch or a whole scenario.
        """
        future: "asyncio.Future[object]" = self._loop.create_future()

        def _done(triggered: Event) -> None:
            if future.cancelled():
                return
            if triggered._ok:
                future.set_result(triggered._value)
            else:
                future.set_exception(
                    _t.cast(BaseException, triggered._value))

        if event.callbacks is None:
            # Already processed: resolve immediately.
            _done(event)
        else:
            event.callbacks.append(_done)
        return await future

    async def run_process(self, generator:
                          _t.Generator[Event, object, object]) -> object:
        """Convenience: start ``generator`` and await its completion."""
        return await self.wait(self.process(generator))

    def __repr__(self) -> str:
        return f"<WallClock t={self.now:.6f}s>"
