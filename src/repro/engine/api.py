"""The engine seam: the :class:`Scheduler` base both engines subclass.

All simulated (or served) time in this library is expressed in
**seconds** as floats; the helper constants :data:`MS` and
:data:`MINUTE` keep call sites readable.  Components take a
:class:`Scheduler` and read only ``now`` and the four event factories
below — never a concrete engine.  A subclass supplies ``now``,
``spends_modelled_time`` and ``_schedule``:

* :class:`repro.sim.kernel.Simulator` — virtual time over an event heap;
* :class:`repro.engine.wallclock.WallClock` — real time on an asyncio
  loop.
"""

from __future__ import annotations

import typing as _t

from repro.engine.events import AllOf, Event, Process, Timeout

__all__ = ["MS", "SECOND", "MINUTE", "HOUR", "Scheduler"]

MS: float = 1e-3
SECOND: float = 1.0
MINUTE: float = 60.0
HOUR: float = 3600.0


class Scheduler:
    """A clock plus event scheduling — everything a component may use.

    The event primitives in :mod:`repro.engine.events` only ever call
    ``_schedule`` on it, which is what makes every component
    engine-agnostic.
    """

    #: Whether a *modelled* cost (a router's CPU service time) is spent
    #: on this engine's clock.  True under virtual time, where nothing
    #: else would pay it; False on the wall clock, where the host's real
    #: CPU is already paying the real cost and the modelled one is only
    #: accounted (:meth:`repro.engine.resources.ServiceQueue.use`).
    spends_modelled_time: bool

    def __init__(self) -> None:
        #: Events executed so far — the denominator for the telemetry
        #: layer's host-profiling hook (events/sec, wall-ms per sim-s).
        self.events_processed = 0

    @property
    def now(self) -> float:
        """Current time in seconds (virtual or wall, engine-dependent)."""
        raise NotImplementedError

    def event(self) -> Event:
        """Create a plain, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: _t.Generator[Event, object, object],
                ) -> Process:
        """Register a generator as a process and start it."""
        return Process(self, generator)

    def all_of(self, events: _t.Sequence[Event]) -> AllOf:
        """An event triggering once all ``events`` have succeeded."""
        return AllOf(self, events)

    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        """Process ``event`` ``delay`` seconds from now."""
        raise NotImplementedError
