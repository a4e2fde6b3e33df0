"""Shared-resource primitives for contention, on either engine.

The AP's CPU, an HTTP server's worker pool, and a link's serialization slot
are all modeled as a :class:`Resource` — a counted semaphore with a FIFO
wait queue.  :class:`ServiceQueue` layers a per-request service time on top,
which is how the reproduction models "handling a DNS query costs the router
X microseconds of CPU".  Whether that modelled time is *spent* is the
engine's call (``Scheduler.spends_modelled_time``): the virtual-time engine
waits for a slot and holds it, so a router-class single-slot CPU serializes
requests; :class:`~repro.engine.wallclock.WallClock` only accounts it — the
host's real CPU is already paying the real cost of the request, and a
0.5 ms hold slept on a millisecond-granular loop timer is neither the
paper's router nor this host.
"""

from __future__ import annotations

import typing as _t
from collections import deque

from repro.errors import SimulationError
from repro.engine.api import Scheduler
from repro.engine.events import Event

__all__ = ["Resource", "ServiceQueue"]


class Resource:
    """A counted resource with FIFO queuing.

    Usage inside a process::

        request = resource.request()
        yield request
        try:
            yield sim.timeout(work)
        finally:
            resource.release(request)
    """

    def __init__(self, sim: Scheduler, capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._waiting: deque[Event] = deque()
        self._granted: set[int] = set()

    @property
    def in_use(self) -> int:
        """Number of currently held slots."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiting)

    def request(self) -> Event:
        """Return an event that triggers once a slot is granted."""
        event = self.sim.event()
        if self._in_use < self.capacity:
            self._in_use += 1
            self._granted.add(id(event))
            event.succeed(self)
        else:
            self._waiting.append(event)
        return event

    def release(self, request: Event) -> None:
        """Release the slot granted to ``request``."""
        if id(request) not in self._granted:
            if request in self._waiting:
                self._waiting.remove(request)
                return
            raise SimulationError("released a request that was never granted")
        self._granted.discard(id(request))
        self._in_use -= 1
        while self._waiting and self._in_use < self.capacity:
            waiter = self._waiting.popleft()
            self._in_use += 1
            self._granted.add(id(waiter))
            waiter.succeed(self)


class ServiceQueue:
    """A resource whose holders occupy it for a caller-supplied service time.

    ``use(duration)`` returns an event whose value is the sojourn time
    (wait + service, seconds), which experiments use to attribute queueing
    delay.  On an engine that spends modelled time it is a process that
    waits for a slot, holds it for ``duration`` and releases it.  On one
    that does not, ``duration`` is charged to ``busy_time`` — the *modelled
    demand*, which may exceed the elapsed wall time — and the event
    succeeds on the next loop turn with sojourn ``0.0``: no slot, no
    process, no timer.
    """

    def __init__(self, sim: Scheduler, capacity: int = 1) -> None:
        self.sim = sim
        self._resource = Resource(sim, capacity)
        self.busy_time = 0.0
        self.completed = 0

    @property
    def queue_length(self) -> int:
        return self._resource.queue_length

    @property
    def in_use(self) -> int:
        return self._resource.in_use

    def use(self, duration: float) -> Event:
        """Occupy one slot for ``duration`` modelled seconds."""
        if self.sim.spends_modelled_time:
            return self.sim.process(self._use(duration))
        self.busy_time += duration
        self.completed += 1
        return self.sim.event().succeed(0.0)

    def _use(self, duration: float):
        started = self.sim.now
        request = self._resource.request()
        yield request
        try:
            yield self.sim.timeout(duration)
        finally:
            self._resource.release(request)
            self.busy_time += duration
            self.completed += 1
        return self.sim.now - started

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` wall time the queue spent busy."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / (elapsed * self._resource.capacity))
