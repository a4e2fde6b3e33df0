"""The discrete-event scheduler.

:class:`Simulator` owns the virtual clock and the event heap.  It is the
virtual-time implementation of the :class:`repro.engine.api.Scheduler`
protocol (the real-time one is
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
from repro.engine.api import HOUR, MINUTE, MS, NORMAL, SECOND, URGENT
from repro.engine.events import AllOf, AnyOf, Event, Process, Timeout

__all__ = ["Simulator", "MS", "SECOND", "MINUTE", "HOUR"]

#: Scheduling priorities: urgent events (interrupts) preempt normal ones
#: that fire at the same instant.  Canonical values live on the engine
#: seam (repro.engine.api) so both engines agree.
_URGENT = URGENT
_NORMAL = NORMAL

#: Bound once at import: the scheduler touches these per event, and the
#: module-attribute lookup is measurable in `sim.events_per_s` (bench/).
_heappush = heapq.heappush
_heappop = heapq.heappop


class Simulator:
    """Drives a single simulation: clock, event heap, process bookkeeping."""

    #: Modelled service times advance the virtual clock (engine seam).
    spends_modelled_time = True

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, int, Event]] = []
        self._counter = itertools.count()
        self._active_process: Process | None = None
        #: Events executed so far — the denominator for the telemetry
        #: layer's host-profiling hook (events/sec, wall-ms per sim-s).
        self.events_processed = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Process | None:
        """The process currently being resumed, if any."""
        return self._active_process

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if the heap is empty."""
        return self._heap[0][0] if self._heap else float("inf")

    # ------------------------------------------------------------------
    # Event factories
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create a plain, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: _t.Generator[Event, object, object],
                ) -> Process:
        """Register a generator as a simulated process and start it."""
        return Process(self, generator)

    def all_of(self, events: _t.Sequence[Event]) -> AllOf:
        """An event triggering once all ``events`` have succeeded."""
        return AllOf(self, events)

    def any_of(self, events: _t.Sequence[Event]) -> AnyOf:
        """An event triggering once any one of ``events`` has succeeded."""
        return AnyOf(self, events)

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
        seconds, or an :class:`Event` (run until it triggers, returning its
        value).
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
