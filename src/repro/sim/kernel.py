"""The discrete-event scheduler.

:class:`Simulator` owns the virtual clock and the event heap: it is the
virtual-time :class:`repro.engine.api.Scheduler` (the real-time one is
:class:`repro.engine.wallclock.WallClock`).  All simulated time in this
library is expressed in **seconds** as floats; helper constants
:data:`MS` and :data:`MINUTE` keep call sites readable::

    sim = Simulator()
    sim.process(my_activity(sim))
    sim.run(until=5 * MINUTE)
"""

from __future__ import annotations

import heapq
import itertools
import typing as _t

from repro.errors import SimulationError
from repro.engine.api import HOUR, MINUTE, MS, SECOND, Scheduler
from repro.engine.events import Event

__all__ = ["Simulator", "MS", "SECOND", "MINUTE", "HOUR"]

#: Same-instant tie-break: a ``run(until=horizon)`` stop preempts the
#: normal events that fire at the horizon.
_URGENT = 0
_NORMAL = 1

#: Bound once at import: the scheduler touches these per event, and the
#: module-attribute lookup is measurable in `sim.events_per_s` (bench/).
_heappush = heapq.heappush
_heappop = heapq.heappop


class Simulator(Scheduler):
    """Drives a single simulation: virtual clock and event heap."""

    #: Modelled service times advance the virtual clock (engine seam).
    spends_modelled_time = True

    def __init__(self) -> None:
        super().__init__()
        self._now = 0.0
        self._heap: list[tuple[float, int, int, Event]] = []
        self._counter = itertools.count()

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # ------------------------------------------------------------------
    # Scheduling and execution
    # ------------------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0,
                  priority: int = _NORMAL) -> None:
        _heappush(
            self._heap,
            (self._now + delay, priority, next(self._counter), event))

    def step(self) -> None:
        """Process the single next event; raises if the heap is empty."""
        if not self._heap:
            raise SimulationError("nothing scheduled; simulation has ended")
        when, _priority, _tie, event = _heappop(self._heap)
        if when < self._now:  # pragma: no cover - guarded by heap ordering
            raise SimulationError("event heap produced a time in the past")
        self._now = when
        self.events_processed += 1
        callbacks = event.callbacks
        event.callbacks = None
        if callbacks:
            for callback in callbacks:
                callback(event)
        elif not event._ok:
            # A failed event nobody waited for must not pass silently.
            raise _t.cast(BaseException, event._value)

    def run(self, until: float | Event | None = None) -> object:
        """Run the simulation.

        ``until`` may be ``None`` (run until the heap drains), a time in
        seconds, or an :class:`Event` (run until it is processed — at
        once if it already was — returning its value or raising its
        failure).
        """
        stop_event: Event | None = None
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            horizon = float(until)
            if horizon < self._now:
                raise SimulationError(
                    f"until={horizon!r} lies in the past (now={self._now!r})")
            stop_event = Event(self)
            self._schedule(stop_event, delay=horizon - self._now,
                           priority=_URGENT)
            stop_event._value = None

        # Drain-loop locals: ``_heap`` is created once in __init__ and
        # never rebound, so the list object can be captured here; the
        # bound ``step`` saves an attribute lookup per event.
        heap = self._heap
        step = self.step

        if stop_event is None:
            while heap:
                step()
            return None

        if stop_event.callbacks is not None:
            # A waiter marks the failure as consumed, so ``step`` does
            # not raise it; it is re-raised below instead.
            stop_event.callbacks.append(lambda _ev: None)
        while not stop_event.processed:
            if not heap:
                raise SimulationError(
                    "simulation ran out of events before `until` triggered")
            step()
        if not stop_event._ok:
            raise _t.cast(BaseException, stop_event._value)
        return stop_event._value

    def run_process(self, generator: _t.Generator[Event, object, object],
                    ) -> object:
        """Convenience: start ``generator`` and run until it finishes."""
        return self.run(until=self.process(generator))

    def __repr__(self) -> str:
        return f"<Simulator t={self._now:.6f}s pending={len(self._heap)}>"
