"""Suite-wide guard: a hung test ends the run with a traceback.

``pytest-timeout`` is not a dependency, so each test arms
:func:`faulthandler.dump_traceback_later`: if the test is still running
after :data:`TEST_TIME_LIMIT_S`, every thread's stack is printed and the
process exits non-zero, instead of an engine fault (a dropped task, a
future nobody resolves) hanging the suite until an outer kill.
"""

import faulthandler

import pytest

#: Seconds one test may run.  The slowest tier-1 test takes about 7 s
#: on a 2-vCPU host (``pytest --durations=15``), so this leaves ~17x
#: headroom for a loaded machine, and it stays above the 60 s
#: subprocess timeouts some tests set so those report their own
#: failure first.
TEST_TIME_LIMIT_S = 120.0


@pytest.fixture(autouse=True)
def _test_time_limit():
    faulthandler.dump_traceback_later(TEST_TIME_LIMIT_S, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()
