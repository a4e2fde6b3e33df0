"""DET002 fixture — host clocks *outside* the telemetry layer.

DET002 treats this file exactly like the telemetry modules beside it:
a host-clock read in simulated code is a finding wherever it sits, so
no telemetry-specific rule is needed.
"""

import time


def somewhere_else():
    return time.monotonic()                        # expect: DET002
