"""Discrete-event simulation kernel.

The kernel is deliberately small and dependency-free: a virtual clock
over an event heap (:mod:`.kernel`) and seeded randomness
(:mod:`.randomness`).  The event and resource primitives it schedules
live on the engine seam (:mod:`repro.engine`), shared with the
wall-clock engine; metrics and traces live in :mod:`repro.telemetry`.
"""

from repro.sim.kernel import HOUR, MINUTE, MS, SECOND, Simulator
from repro.sim.randomness import (
    ExponentialSampler,
    RandomStreams,
    ZipfSampler,
)

__all__ = [
    "ExponentialSampler",
    "HOUR",
    "MINUTE",
    "MS",
    "RandomStreams",
    "SECOND",
    "Simulator",
    "ZipfSampler",
]
