"""The clock/scheduler protocol both engines implement.

All simulated (or served) time in this library is expressed in
**seconds** as floats; the helper constants :data:`MS` and
:data:`MINUTE` keep call sites readable.  Components take a
:class:`Scheduler` (the clock plus event factories) and never import a
concrete engine — :func:`build_engine` is the one place an engine kind
is turned into an instance.
"""

from __future__ import annotations

import typing as _t

from repro.errors import ConfigError

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.engine.events import AllOf, AnyOf, Event, Process, Timeout

__all__ = [
    "MS", "SECOND", "MINUTE", "HOUR",
    "URGENT", "NORMAL",
    "Clock", "Scheduler", "Engine",
    "ENGINE_KINDS", "build_engine",
]

MS: float = 1e-3
SECOND: float = 1.0
MINUTE: float = 60.0
HOUR: float = 3600.0

#: Scheduling priorities: urgent events (interrupts, run-until stops)
#: preempt normal ones that fire at the same instant.
URGENT: int = 0
NORMAL: int = 1


@_t.runtime_checkable
class Clock(_t.Protocol):
    """Anything that can tell the current time in seconds."""

    @property
    def now(self) -> float:
        """Current time in seconds (virtual or wall, engine-dependent)."""
        ...


@_t.runtime_checkable
class Scheduler(Clock, _t.Protocol):
    """The engine seam: a clock plus event scheduling.

    :class:`repro.sim.kernel.Simulator` implements this over a virtual
    clock and an event heap; :class:`repro.engine.wallclock.WallClock`
    implements it over an asyncio loop and the host's monotonic clock.
    The event primitives in :mod:`repro.engine.events` only ever touch
    this surface (plus the ``_active_process`` bookkeeping attribute),
    which is what makes every component engine-agnostic.
    """

    #: Events executed so far — the denominator for the telemetry
    #: layer's host-profiling hook (events/sec, wall-ms per sim-s).
    events_processed: int

    #: Whether a *modelled* cost (a router's CPU service time) is spent
    #: on this engine's clock.  True under virtual time, where nothing
    #: else would pay it; False on the wall clock, where the host's real
    #: CPU is already paying the real cost and the modelled one is only
    #: accounted (:meth:`repro.engine.resources.ServiceQueue.use`).
    spends_modelled_time: bool

    @property
    def active_process(self) -> "Process | None":
        """The process currently being resumed, if any."""
        ...

    def event(self) -> "Event":
        """Create a plain, untriggered event."""
        ...

    def timeout(self, delay: float, value: object = None) -> "Timeout":
        """Create an event that fires ``delay`` seconds from now."""
        ...

    def process(self, generator: _t.Generator["Event", object, object],
                ) -> "Process":
        """Register a generator as a process and start it."""
        ...

    def all_of(self, events: _t.Sequence["Event"]) -> "AllOf":
        """An event triggering once all ``events`` have succeeded."""
        ...

    def any_of(self, events: _t.Sequence["Event"]) -> "AnyOf":
        """An event triggering once any one of ``events`` has succeeded."""
        ...

    def _schedule(self, event: "Event", delay: float = 0.0,
                  priority: int = NORMAL) -> None:
        """Schedule ``event`` to be processed ``delay`` seconds from now."""
        ...


#: Components annotate the seam as ``Scheduler``; ``Engine`` is the
#: reading-aloud alias for call sites that hold a whole engine.
Engine = Scheduler

ENGINE_KINDS: tuple[str, ...] = ("sim", "wall")


def build_engine(kind: str = "sim") -> Scheduler:
    """Instantiate an engine by kind: ``"sim"`` or ``"wall"``.

    The concrete engine modules are imported lazily so that importing
    the seam never drags in the event heap or asyncio.
    """
    if kind == "sim":
        from repro.sim.kernel import Simulator

        return Simulator()
    if kind in ("wall", "wallclock"):
        from repro.engine.wallclock import WallClock

        return WallClock()
    raise ConfigError(
        f"unknown engine kind {kind!r}; expected one of {ENGINE_KINDS}")
