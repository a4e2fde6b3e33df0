"""Opt-in host profiling: how fast does the simulator itself run?

Everything else in :mod:`repro.telemetry` is clocked on simulated time;
this module is the one deliberate exception.  It measures the *host's*
execution of a run — events processed per wall second and wall
milliseconds spent per simulated second — the numbers the scaling work
(sharding, batching, async kernels) needs as its before/after yardstick.

Wall time is read exclusively through :func:`repro.perf.perf_timer`, the
repository's single blessed wall-clock seam.  The ``DET002`` lint rule
forbids direct ``time.monotonic``/``time.perf_counter`` calls anywhere
in ``repro.telemetry``, this module included, so stray host time cannot
leak into metric or span recording.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.errors import TelemetryError
from repro.perf import perf_timer

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

__all__ = ["HostProfile", "HostProfileReport"]


@dataclasses.dataclass(frozen=True)
class HostProfileReport:
    """One profiled window of host execution."""

    wall_s: float
    sim_s: float
    events: int
    events_per_wall_s: float
    wall_ms_per_sim_s: float

    def render(self) -> str:
        return (f"host profile: {self.events} events in "
                f"{self.wall_s:.3f}s wall / {self.sim_s:.1f}s sim "
                f"({self.events_per_wall_s:,.0f} events/s, "
                f"{self.wall_ms_per_sim_s:.2f} wall-ms per sim-s)")


class HostProfile:
    """Stopwatch over a simulation run.

    Usage::

        profile = HostProfile(bed.sim).start()
        bed.run(until=duration)
        report = profile.stop()

    ``start``/``stop`` may wrap any window; deltas are taken against the
    kernel's ``events_processed`` counter and ``now`` at ``start``.
    """

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._elapsed: _t.Callable[[], float] | None = None
        self._events0 = 0
        self._sim0 = 0.0

    def start(self) -> "HostProfile":
        self._elapsed = perf_timer()
        self._events0 = self.sim.events_processed
        self._sim0 = self.sim.now
        return self

    def stop(self) -> HostProfileReport:
        if self._elapsed is None:
            raise TelemetryError("HostProfile.stop() before start()")
        wall_s = self._elapsed()
        events = self.sim.events_processed - self._events0
        sim_s = self.sim.now - self._sim0
        self._elapsed = None
        return HostProfileReport(
            wall_s=wall_s,
            sim_s=sim_s,
            events=events,
            events_per_wall_s=events / wall_s if wall_s > 0 else 0.0,
            wall_ms_per_sim_s=(wall_s * 1e3) / sim_s if sim_s > 0 else 0.0)
