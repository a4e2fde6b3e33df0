"""DET004: host-clock calls inside the telemetry layer.

The telemetry layer measures **simulated** time; a stray
``time.perf_counter()`` there silently turns deterministic spans and
latency histograms into machine-load-dependent numbers.  DET002 already
forbids wall-clock reads in simulated code generally, but it can be
relaxed per-path via ``wallclock-allow`` — DET004 is the
telemetry-specific backstop that stays in force even then.  The one
sanctioned route to host time is :mod:`repro.telemetry.profiling`, which
goes through ``repro.perf.perf_timer`` and is allowlisted via
``[tool.repro-lint] telemetry-profiling-allow``.
"""

from __future__ import annotations

import ast
import typing as _t

from repro.lint.findings import Finding
from repro.lint.registry import Checker, ModuleUnderLint, register

__all__ = ["TelemetryHostClock"]

#: Host clocks DET004 forbids in telemetry code.  Broader than "just
#: monotonic/perf_counter": any of these makes an export time-dependent.
_HOST_CLOCKS = {
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}


@register
class TelemetryHostClock(Checker):
    """DET004: direct host-clock call in ``repro.telemetry``.

    Applies to files under ``telemetry-paths`` and skips only the
    allowlisted profiling hook (``telemetry-profiling-allow``), which is
    required to take host time through ``repro.perf.perf_timer``.
    """

    code = "DET004"
    description = ("host-clock call (time.monotonic, time.perf_counter, "
                   "...) inside repro.telemetry outside the profiling "
                   "hook")

    def check(self, module: ModuleUnderLint) -> _t.Iterator[Finding]:
        config = module.config
        if not config.in_telemetry(module.path):
            return
        if config.allows_telemetry_profiling(module.path):
            return
        if config.allows_engine_wallclock(module.path):
            return  # the real-time engine (docs/live.md)
        imports = module.imports
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            path = imports.resolve(node.func)
            if path in _HOST_CLOCKS:
                yield module.finding(
                    self.code, node,
                    f"telemetry must clock off Simulator.now; {path}() "
                    f"belongs only in the profiling hook "
                    f"(repro.telemetry.profiling via "
                    f"repro.perf.perf_timer)")
