"""Host fingerprint: what two result files must share to be comparable."""

from __future__ import annotations

import os
import platform
import time

#: Iterations of the calibration loop: about 200 ms of pure-Python
#: integer work on the host this benchmark was defined on.  Fixed, so
#: `calib_ms` is a speed reading of the interpreter on this host.
CALIBRATION_ITERATIONS = 4_000_000


def calibrate() -> float:
    """Milliseconds the fixed spin loop takes here."""
    started = time.perf_counter()
    total = 0
    for value in range(CALIBRATION_ITERATIONS):
        total += value * value
    return (time.perf_counter() - started) * 1e3


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint() -> dict[str, object]:
    """Taken at the start of a run; `finish` adds the closing load."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": cpu_model(),
        "loadavg_start": list(os.getloadavg()),
        "calib_ms": calibrate(),
    }


def finish(host: dict[str, object]) -> dict[str, object]:
    host["loadavg_end"] = list(os.getloadavg())
    return host
