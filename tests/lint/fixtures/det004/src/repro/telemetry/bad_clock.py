"""DET002 fixture — a telemetry module sneaking host-clock reads.

Never imported, only linted.  The telemetry layer clocks off
``Simulator.now``; DET002 flags every host-clock read here exactly as
it does anywhere else in simulated code.
"""

import datetime
import time
from time import perf_counter
import time as clock


def span_start():
    return time.monotonic()                        # expect: DET002


def span_start_ns():
    return time.monotonic_ns()                     # expect: DET002


def histogram_stamp():
    return perf_counter()                          # expect: DET002


def aliased_module():
    return clock.perf_counter_ns()                 # expect: DET002


def export_timestamp():
    return datetime.datetime.now()                 # expect: DET002


def cpu_budget():
    return time.process_time()                     # expect: DET002


def sim_clocked(sim):
    # The sanctioned clock: every span and sample reads Simulator.now.
    return sim.now
