"""Sim-vs-live parity: one workload through both engines, diffed.

The engine seam's acceptance test: replay the same request sequence
through the virtual-time :class:`~repro.sim.kernel.Simulator` testbed
and the :class:`~repro.engine.wallclock.WallClock` live stack
(:mod:`repro.engine.live`), then compare the two telemetry span logs
with the existing :func:`~repro.telemetry.analysis.diff_runs` tooling.

The parity contract (docs/live.md) has two tiers:

1. **Exact**: the request *taxonomy* — which sources appear
   (``ap-hit`` / ``ap-delegated`` / ``edge``), which stages each source
   passes through, and how many requests land in each — must be
   identical.  The components are shared, so any divergence here is an
   engine-seam bug, not jitter.
2. **Toleranced**: latency statistics (mean/p50/p95/p99/max, in ms)
   may differ by up to :data:`DEFAULT_TOLERANCE_MS` per field.
   Virtual time is noiseless; wall time pays scheduler jitter, socket
   syscalls, and loopback copies.  The 250 ms tolerance is deliberately
   loose — it catches pathologies (a lost retry burning a 1 s UDP timeout, an
   accidental real sleep) while never flaking on a loaded CI host.

On top of the diff, the live run must hold the live-health bounds of
:func:`repro.telemetry.obs.live_health_violations` (no socket error,
no loop stall, loop-lag p99 at most 200 ms).
"""

from __future__ import annotations

import asyncio
import dataclasses
import typing as _t

from repro.core.annotations import CacheableSpec
from repro.telemetry.analysis import (
    AttributionReport,
    RunData,
    attribute,
    diff_runs,
    records_from_telemetry,
)

if _t.TYPE_CHECKING:
    from repro.experiments.common import ExperimentTable
    from repro.telemetry.analysis import SpanRecord

__all__ = ["ParityReport", "run_parity", "parity_workload"]

#: Per-field latency-statistic tolerance (milliseconds); the
#: wall-jitter contract documented in docs/live.md.
DEFAULT_TOLERANCE_MS = 250.0

#: The replayed workload: app -> ordered (url, size) catalog.  Small
#: objects keep the live transfer time negligible next to the stage
#: structure being compared.
_WORKLOAD: dict[str, tuple[tuple[str, int], ...]] = {
    "app-a": (("http://app-a.example/obj-1", 24 * 1024),
              ("http://app-a.example/obj-2", 64 * 1024)),
    "app-b": (("http://app-b.example/obj-1", 128 * 1024),),
}
_SPEC_PRIORITY = 2
_SPEC_TTL_S = 300.0


def parity_workload(rounds: int) -> list[tuple[str, str]]:
    """The deterministic request sequence: (app_id, url) per fetch.

    Sequential by construction — no two requests are in flight at
    once — so delegation coalescing never diverges between engines.
    """
    sequence: list[tuple[str, str]] = []
    for _round in range(rounds):
        for app_id, catalog in _WORKLOAD.items():
            sequence.extend((app_id, url) for url, _size in catalog)
    return sequence


@dataclasses.dataclass
class _EngineRun:
    """One engine's replay: span log + derived attribution."""

    engine: str
    sources: list[str]
    spans: list["SpanRecord"]
    duration_s: float
    telemetry: object = None

    def report(self) -> AttributionReport:
        return attribute(self.spans)


def _specs() -> list[CacheableSpec]:
    return [CacheableSpec(url=url, priority=_SPEC_PRIORITY,
                          ttl_s=_SPEC_TTL_S)
            for catalog in _WORKLOAD.values()
            for url, _size in catalog]


def _sim_run(seed: int, rounds: int) -> _EngineRun:
    """Replay through the virtual-time testbed (APE-CACHE installed)."""
    from repro.baselines.ape import ApeCacheSystem
    from repro.testbed import Testbed, TestbedConfig

    bed = Testbed(TestbedConfig(seed=seed, enable_telemetry=True))
    system = ApeCacheSystem()
    system.install(bed)
    for catalog in _WORKLOAD.values():
        for url, size in catalog:
            bed.host_object(url, size)
    clients = {}
    for app_id in _WORKLOAD:
        node = bed.add_client()
        client = system.new_fetcher(bed, node, app_id)
        for spec in _specs():
            client.register_spec(spec)
        clients[app_id] = client

    sources: list[str] = []

    def _driver():
        for app_id, url in parity_workload(rounds):
            result = yield from clients[app_id].fetch(url)
            sources.append(result.source)

    bed.sim.run_process(_driver())
    return _EngineRun(engine="sim", sources=sources,
                      spans=records_from_telemetry(bed.telemetry),
                      duration_s=bed.sim.now,
                      telemetry=bed.telemetry)


def _live_run(seed: int, rounds: int) -> _EngineRun:
    """Replay through the live stack on loopback sockets."""
    from repro.engine.live import LiveStack
    from repro.engine.wallclock import WallClock

    async def _replay() -> _EngineRun:
        engine = WallClock()
        stack = LiveStack(engine)
        for catalog in _WORKLOAD.values():
            for url, size in catalog:
                stack.host_object(url, size)
        await stack.start()
        clients = {}
        for app_id in _WORKLOAD:
            client = stack.add_client(app_id)
            for spec in _specs():
                client.register_spec(spec)
            clients[app_id] = client
        sources: list[str] = []
        try:
            for app_id, url in parity_workload(rounds):
                result = await stack.fetch(clients[app_id], url)
                sources.append(result.source)
        finally:
            await stack.stop()
        engine.raise_unwaited()
        return _EngineRun(
            engine="live", sources=sources,
            spans=records_from_telemetry(stack.telemetry),
            duration_s=engine.now, telemetry=stack.telemetry)

    return asyncio.run(_replay())


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
def _count_map(report: AttributionReport) -> dict[tuple[str, str], int]:
    """(source, stage) -> request count, from the summary tree."""
    counts: dict[tuple[str, str], int] = {}
    for source, stages in report.summary().items():
        for stage, stats in stages.items():
            counts[(source, stage)] = int(stats.get("count", 0))
    return counts


@dataclasses.dataclass
class ParityReport:
    """Everything the parity gate decided, renderable as tables."""

    sim: _EngineRun
    live: _EngineRun
    #: Taxonomy divergences (exact tier): human-readable lines.
    mismatches: list[str]
    #: Latency-stat divergences beyond tolerance (toleranced tier).
    stat_entries: list[str]

    @property
    def ok(self) -> bool:
        from repro.telemetry.obs import live_health_violations

        return (not self.mismatches and not self.stat_entries
                and not live_health_violations(
                    _t.cast("_t.Any", self.live.telemetry)))

    def tables(self) -> list["ExperimentTable"]:
        from repro.experiments.common import ExperimentTable

        sim_counts = _count_map(self.sim.report())
        live_counts = _count_map(self.live.report())
        table = ExperimentTable(
            title="parity: request taxonomy (sim vs live)",
            columns=["source", "stage", "sim_count", "live_count",
                     "verdict"])
        for key in sorted(set(sim_counts) | set(live_counts)):
            source, stage = key
            left = sim_counts.get(key)
            right = live_counts.get(key)
            table.add_row(
                source=source, stage=stage,
                sim_count="-" if left is None else str(left),
                live_count="-" if right is None else str(right),
                verdict="ok" if left == right else "MISMATCH")
        table.notes.append(
            f"latency stats compared with |delta| <= "
            f"{DEFAULT_TOLERANCE_MS:g} ms wall-jitter tolerance "
            f"(docs/live.md); sim run {self.sim.duration_s * 1e3:.1f} "
            f"virtual ms, live run {self.live.duration_s * 1e3:.1f} "
            f"wall ms")
        for line in self.mismatches:
            table.notes.append(f"MISMATCH: {line}")
        for line in self.stat_entries:
            table.notes.append(f"BEYOND TOLERANCE: {line}")
        tables: list[ExperimentTable] = [table]
        from repro.telemetry.obs import live_health_table

        health = live_health_table(
            _t.cast("_t.Any", self.live.telemetry))
        if health is not None:
            tables.append(health)
        return tables


def _compare(sim: _EngineRun, live: _EngineRun,
             tolerance_ms: float) -> tuple[list[str], list[str]]:
    """Exact taxonomy check, then the toleranced stat diff."""
    mismatches: list[str] = []
    if sim.sources != live.sources:
        mismatches.append(
            f"fetch outcome sequence diverged: "
            f"sim={sim.sources} live={live.sources}")
    sim_counts = _count_map(sim.report())
    live_counts = _count_map(live.report())
    for key in sorted(set(sim_counts) | set(live_counts)):
        if sim_counts.get(key) != live_counts.get(key):
            source, stage = key
            mismatches.append(
                f"{source}/{stage} count: sim={sim_counts.get(key)} "
                f"live={live_counts.get(key)}")

    # Metrics are deliberately excluded: the simulated testbed records
    # series (link queueing, CDN internals) the live loopback stack has
    # no counterpart for, and vice versa — spans are the shared truth.
    delta = diff_runs(RunData(metrics=[], spans=sim.spans),
                      RunData(metrics=[], spans=live.spans),
                      tolerance=tolerance_ms)
    stat_entries = [entry.render() for entry in delta.entries
                    if entry.field != "count"]
    return mismatches, stat_entries


def run_parity(quick: bool = True, seed: int = 0,
               emit: _t.Callable[[str], None] = print,
               ) -> tuple[list["ExperimentTable"], int]:
    """The ``repro.cli parity`` implementation.

    Returns the rendered tables and the exit code (0 = parity holds).
    """
    rounds = 3 if quick else 6
    emit(f"parity: replaying {len(parity_workload(rounds))} requests "
         f"through the sim engine")
    sim = _sim_run(seed, rounds)
    emit("parity: replaying the same workload through the live engine "
         "(loopback sockets)")
    live = _live_run(seed, rounds)

    mismatches, stat_entries = _compare(sim, live, DEFAULT_TOLERANCE_MS)
    report = ParityReport(sim=sim, live=live, mismatches=mismatches,
                          stat_entries=stat_entries)
    return report.tables(), 0 if report.ok else 1
