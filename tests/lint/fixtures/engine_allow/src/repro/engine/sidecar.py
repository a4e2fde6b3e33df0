"""Fixture: a sibling engine module with an *unsanctioned* clock read.

Lives next to the blessed wallclock module but is not on the
``wallclock-allow`` list — the allowance is per-file, not
per-package, so this read must still be flagged.
"""

import time


def sneak_a_timestamp():
    return time.monotonic()  # expect: DET002
