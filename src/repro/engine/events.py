"""Event primitives shared by every engine.

The kernel follows the classic generator-based design (as popularised by
SimPy): activities are Python generators that ``yield`` events and are
resumed by the scheduler when those events trigger.  An :class:`Event`
moves through three states:

* *pending* — created, nothing has happened yet;
* *triggered* — scheduled to fire, sitting with the scheduler;
* *processed* — callbacks have run, ``value`` (or an exception) is final.

Only an engine schedules events; user code creates them through the
factory methods of the :class:`~repro.engine.api.Scheduler` base — the
virtual-time :class:`repro.sim.kernel.Simulator` or the real-time
:class:`repro.engine.wallclock.WallClock`.  Nothing here reads a clock
or touches an event heap (an event only calls its engine's
``_schedule``), which is what lets the same primitives drive both.
"""

from __future__ import annotations

import typing as _t

from repro.errors import SimulationError

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.engine.api import Scheduler

__all__ = ["Event", "Timeout", "Process", "AllOf"]

_PENDING = object()


class Event:
    """A happening at a point in time with an optional value.

    Callbacks registered on the event run when it is processed.  An event
    may *succeed* (carry a value) or *fail* (carry an exception that will be
    re-raised inside any process waiting on it).
    """

    def __init__(self, sim: "Scheduler") -> None:
        self.sim = sim
        self.callbacks: list[_t.Callable[["Event"], None]] | None = []
        self._value: object = _PENDING
        self._ok = True

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True when the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> object:
        """The event's payload; raises if read before the event triggers."""
        if self._value is _PENDING:
            raise SimulationError(f"value of {self!r} is not yet available")
        return self._value

    def succeed(self, value: object = None) -> "Event":
        """Trigger the event successfully with ``value`` as its payload."""
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._value = value
        self.sim._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception to raise in waiters."""
        if not isinstance(exception, BaseException):
            raise SimulationError(f"{exception!r} is not an exception")
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.sim._schedule(self)
        return self

    def __repr__(self) -> str:
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed delay."""

    def __init__(self, sim: "Scheduler", delay: float,
                 value: object = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        super().__init__(sim)
        self.delay = delay
        self._value = value
        sim._schedule(self, delay=delay)

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay!r}>"


class Process(Event):
    """Wraps a generator so it can be driven by the scheduler.

    The process is itself an event that triggers when the generator returns
    (its value is the generator's return value) or raises (the process
    fails, propagating to any process waiting on it).
    """

    def __init__(self, sim: "Scheduler",
                 generator: _t.Generator["Event", object, object]) -> None:
        if not hasattr(generator, "throw"):
            raise SimulationError(
                f"{generator!r} is not a generator; did you forget a yield?")
        super().__init__(sim)
        self._generator = generator
        # Kick the process off via an immediately-scheduled init event.
        init = Event(sim)
        init.callbacks.append(self._resume)
        init._value = None
        sim._schedule(init)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._value is _PENDING

    def _resume(self, event: Event) -> None:
        """Advance the generator with the triggering event's outcome."""
        while True:
            try:
                if event._ok:
                    target = self._generator.send(event._value)
                else:
                    target = self._generator.throw(
                        _t.cast(BaseException, event._value))
            except StopIteration as stop:
                self._value = stop.value
                self.sim._schedule(self)
                break
            except BaseException as exc:
                self._ok = False
                self._value = exc
                self.sim._schedule(self)
                break
            if not isinstance(target, Event):
                exc = SimulationError(
                    f"process yielded {target!r}, expected an Event")
                event = Event(self.sim)
                event._ok = False
                event._value = exc
                continue
            if target.sim is not self.sim:
                exc = SimulationError(
                    "yielded an event belonging to another simulator")
                event = Event(self.sim)
                event._ok = False
                event._value = exc
                continue
            if target.callbacks is not None:
                # Event still outstanding: park until it triggers.
                target.callbacks.append(self._resume)
                break
            # Already processed: feed its outcome straight back in.
            event = target

    def __repr__(self) -> str:
        name = getattr(self._generator, "__name__", "process")
        return f"<Process {name} alive={self.is_alive}>"


class AllOf(Event):
    """Triggers when every component event has triggered successfully.

    Its value is a dict mapping each component event to its value; the
    first component to fail fails it with the same exception.
    """

    def __init__(self, sim: "Scheduler",
                 events: _t.Sequence[Event]) -> None:
        super().__init__(sim)
        self._events = list(events)
        # Each component reports to _observe exactly once (immediately for
        # already-processed events, else via callback), so a running count
        # replaces recounting every component per trigger — which made a
        # wide AllOf quadratic in its event count.
        self._done = 0
        for event in self._events:
            if event.sim is not sim:
                raise SimulationError(
                    "condition mixes events from different simulators")
        if not self._events:
            self.succeed({})
            return
        for event in self._events:
            if event.callbacks is None:
                self._observe(event)
            else:
                event.callbacks.append(self._observe)

    def _observe(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self.fail(_t.cast(BaseException, event._value))
            return
        self._done += 1
        if self._done == len(self._events):
            self.succeed({ev: ev._value for ev in self._events})
