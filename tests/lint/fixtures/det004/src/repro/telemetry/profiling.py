"""DET002 fixture — a profiling-hook look-alike reading the host clock.

Host time for profiling goes through ``repro.perf.perf_timer``; a
direct ``time.perf_counter()`` here is a DET002 finding like any other.
"""

import time


def wall_elapsed(start: float) -> float:
    return time.perf_counter() - start             # expect: DET002
