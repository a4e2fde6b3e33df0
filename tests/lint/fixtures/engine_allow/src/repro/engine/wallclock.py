"""Fixture: the blessed wall-clock engine module.

Mirrors the real :mod:`repro.engine.wallclock` layout — the one module
whose job is turning the host clock into ``engine.now``.  Its path
matches the default ``wallclock-allow`` entry, so the host-clock
reads below are sanctioned (no DET002 expected anywhere here).
"""

import time


class WallClock:
    def __init__(self):
        self._epoch = time.monotonic()

    @property
    def now(self):
        return time.monotonic() - self._epoch
