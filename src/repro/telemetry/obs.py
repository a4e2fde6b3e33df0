"""The ``repro obs`` panel: one instrumented run, summarized.

Runs the paper's workload on APE-CACHE with telemetry enabled and
renders what the unified registry saw: the request path's per-stage
latency breakdown (``dns_piggyback`` → AP retrieval → edge fetch),
the span-derived critical-path attribution
(:mod:`repro.telemetry.analysis`), and per-app hit ratios with a Gini
fairness index.  ``--export-spans``/``--export-metrics`` dump the run
as deterministic JSONL, ``--export-trace`` writes a Perfetto-viewable
Chrome trace (:mod:`repro.telemetry.tracefmt`), and ``--profile`` adds
the host-side events/sec view from :mod:`repro.telemetry.profiling`.

:func:`instrumented_run` is the shared "one instrumented run" builder
this panel and the paper-bound tests (``tests/telemetry/
test_analysis.py``) both sit on.  :func:`live_health_violations` is
the live engine's health verdict behind the exit codes of ``repro.cli
live`` and ``repro.cli parity``.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.apps.workload import Workload, WorkloadConfig
from repro.baselines.ape import ApeCacheSystem
from repro.cache.fairness import gini
from repro.experiments.common import ExperimentTable, quick_duration
from repro.sim.kernel import MINUTE
from repro.telemetry.analysis import (
    AttributionReport,
    attribute,
    records_from_telemetry,
)
from repro.telemetry.export import write_metrics_jsonl, write_spans_jsonl
from repro.telemetry.instruments import Counter, Gauge, Histogram
from repro.telemetry.profiling import HostProfile, HostProfileReport
from repro.telemetry.registry import Telemetry
from repro.testbed import Testbed, TestbedConfig

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.baselines.base import CachingSystem
    from repro.baselines.multi_ap import WiCacheDistributedSystem

__all__ = ["ObsRun", "follow_obs", "instrumented_run", "run_obs",
           "stage_table", "hit_ratio_table", "live_health_table",
           "live_health_violations", "LIVE_HEALTH_BOUNDS",
           "fleet_tables", "fleet_table", "top_traces_table"]

_MB = 1024 * 1024

#: Retrieval sources in request-path order (device first, origin last).
_SOURCES = ("device-hit", "ap-hit", "ap-delegated", "edge")


def _histogram(telemetry: Telemetry, name: str) -> Histogram | None:
    instrument = telemetry.get(name)
    return instrument if isinstance(instrument, Histogram) else None


def _stage_row(table: ExperimentTable, stage: str,
               histogram: Histogram | None, **labels: object) -> None:
    if histogram is None:
        return
    summary = histogram.summary(**labels)
    if not summary.get("count"):
        return
    table.add_row(stage=stage, count=int(summary["count"]),
                  mean_ms=summary["mean"], p50_ms=summary["p50"],
                  p95_ms=summary["p95"], p99_ms=summary["p99"])


def stage_table(telemetry: Telemetry) -> ExperimentTable:
    """Per-stage latency breakdown (dns / ap / edge), in sim-ms."""
    table = ExperimentTable(
        title="obs: per-stage latency breakdown (APE-CACHE)",
        columns=["stage", "count", "mean_ms", "p50_ms", "p95_ms",
                 "p99_ms"])
    lookup = _histogram(telemetry, "client.lookup_ms")
    retrieval = _histogram(telemetry, "client.retrieval_ms")
    _stage_row(table, "dns lookup (piggybacked)", lookup)
    for source in _SOURCES:
        _stage_row(table, f"retrieval [{source}]", retrieval,
                   source=source)
    _stage_row(table, "ap->edge fetch",
               _histogram(telemetry, "ap.edge_fetch_ms"))
    _stage_row(table, "end-to-end", _histogram(telemetry,
                                               "client.total_ms"))
    table.notes.append(
        "stages from client.lookup_ms / client.retrieval_ms / "
        "ap.edge_fetch_ms / client.total_ms histograms")
    return table


def hit_ratio_table(telemetry: Telemetry) -> ExperimentTable:
    """Per-app AP-hit ratios plus a Gini fairness index across apps."""
    table = ExperimentTable(
        title="obs: per-app hit ratio",
        columns=["app", "fetches", "hits", "hit_ratio"])
    counter = telemetry.get("client.fetches")
    if not isinstance(counter, Counter):
        table.notes.append("no client.fetches counter recorded")
        return table
    apps = sorted({dict(labels).get("app", "")
                   for labels in counter.labelsets()})
    ratios = []
    rows = []
    for app in apps:
        total = counter.total(app=app)
        hits = counter.total(app=app, hit="yes")
        ratio = hits / total if total else 0.0
        ratios.append(ratio)
        rows.append({"app": app, "fetches": int(total),
                     "hits": int(hits), "hit_ratio": ratio})
    for row in sorted(rows, key=lambda row: (-_t.cast(int, row["fetches"]),
                                             row["app"])):
        table.add_row(**row)
    grand_total = counter.total()
    grand_hits = counter.total(hit="yes")
    if grand_total:
        table.notes.append(
            f"overall hit ratio {grand_hits / grand_total:.3f} over "
            f"{grand_total:.0f} fetches")
    table.notes.append(
        f"Gini over per-app hit ratios: {gini(ratios):.3f} "
        f"(0 = perfectly even)")
    return table


#: The live-health bounds (docs/live.md), in ``live_health_table``
#: row names: a clean live run never hits a socket error or a loop
#: stall, and scheduling delay stays well under the 250 ms stall
#: threshold.
LIVE_HEALTH_BOUNDS = (("live.socket_errors", 0.0),
                      ("live.loop_stalls", 0.0),
                      ("live.loop_lag_ms (p99)", 200.0))


def _counter_total(telemetry: Telemetry, name: str) -> float | None:
    instrument = telemetry.get(name)
    return instrument.total() if isinstance(instrument, Counter) else None


def _lag_p99(telemetry: Telemetry) -> float | None:
    lag = _histogram(telemetry, "live.loop_lag_ms")
    return lag.percentile(99.0) if lag is not None and lag.count() \
        else None


def live_health_violations(telemetry: Telemetry) -> list[str]:
    """The :data:`LIVE_HEALTH_BOUNDS` a live run broke, one line each.

    ``repro.cli live`` and ``repro.cli parity`` exit 1 on any.  A
    missing instrument, or a lag histogram without a single probe, is
    a violation rather than a pass.
    """
    observed = (_counter_total(telemetry, "live.socket_errors"),
                _counter_total(telemetry, "live.loop_stalls"),
                _lag_p99(telemetry))
    return [f"{name} = {'(missing)' if value is None else f'{value:g}'}"
            f" > {limit:g}"
            for (name, limit), value in zip(LIVE_HEALTH_BOUNDS, observed)
            if value is None or value > limit]


def live_health_table(telemetry: Telemetry) -> ExperimentTable | None:
    """Health of a live-engine run (``live.*`` instruments).

    Returns ``None`` when the registry holds no live instruments —
    the normal case for simulated runs, whose transport never touches
    a socket.  On live registries every row renders unconditionally
    (:mod:`repro.engine.livenet` pre-registers the instruments at stack
    construction), so a clean run — and the very first ``/metrics``
    scrape — shows honest zeros instead of omitting rows.  A note
    names every broken :data:`LIVE_HEALTH_BOUNDS` entry.
    """
    if _counter_total(telemetry, "live.socket_errors") is None:
        return None

    def counter_total(name: str) -> int:
        return int(_counter_total(telemetry, name) or 0)

    def gauge_now(name: str) -> int:
        instrument = telemetry.get(name)
        if not isinstance(instrument, Gauge):
            return 0
        return int(sum(instrument.value(**dict(key))
                       for key in instrument.labelsets()))

    table = ExperimentTable(
        title="obs: live socket health",
        columns=["instrument", "value"])
    table.add_row(instrument="live.socket_errors",
                  value=counter_total("live.socket_errors"))
    table.add_row(instrument="live.request_timeouts",
                  value=counter_total("live.request_timeouts"))
    table.add_row(instrument="live.in_flight (now)",
                  value=gauge_now("live.in_flight"))
    table.add_row(instrument="live.tasks_active (now)",
                  value=gauge_now("live.tasks_active"))
    table.add_row(instrument="live.loop_stalls",
                  value=counter_total("live.loop_stalls"))
    table.add_row(instrument="live.loop_lag_ms (p99)",
                  value=round(_lag_p99(telemetry) or 0.0, 3))
    table.notes.append(
        "live-engine health; a drained stack ends with in_flight 0; "
        "bounds: " + ", ".join(f"{name} <= {limit:g}"
                               for name, limit in LIVE_HEALTH_BOUNDS)
        + " (docs/live.md)")
    for line in live_health_violations(telemetry):
        table.notes.append(f"VIOLATION: {line}")
    return table


def follow_obs(url: str, interval_s: float = 2.0, count: int = 0,
               metrics_path: str | None = None,
               emit: _t.Callable[[str], None] = print) -> int:
    """Poll a live admin plane's ``/metrics`` and stream the panels.

    The ``repro.cli obs --follow URL`` implementation: every
    ``interval_s`` it scrapes the exposition text, rebuilds a registry
    (:func:`~repro.telemetry.exposition.telemetry_from_exposition` —
    counters/gauges exact, histogram percentiles at bucket resolution)
    and re-renders the stage / hit-ratio / live-health panels.
    ``count`` bounds the polls (0 = until the endpoint goes away or
    Ctrl-C); ``metrics_path`` writes the final scrape as metric JSONL,
    diffable by ``repro.cli diff``.
    """
    import time as _time
    from urllib.request import urlopen

    from repro.telemetry.exposition import telemetry_from_exposition

    target = url if "://" in url else f"http://{url}"
    if not target.rstrip("/").endswith("/metrics"):
        target = target.rstrip("/") + "/metrics"
    polls = 0
    telemetry: Telemetry | None = None
    while True:
        try:
            with urlopen(target, timeout=10.0) as response:
                text = response.read().decode("utf-8")
        except OSError as err:
            if polls:
                emit(f"obs --follow: endpoint gone after {polls} "
                     f"polls ({err})")
                break
            raise
        telemetry = telemetry_from_exposition(text)
        polls += 1
        emit(f"obs --follow: poll {polls} of {target} "
             f"({len(text)} bytes, "
             f"{len(telemetry.instruments())} instruments)")
        for table in (stage_table(telemetry),
                      hit_ratio_table(telemetry)):
            emit(str(table))
            emit("")
        live_health = live_health_table(telemetry)
        if live_health is not None:
            emit(str(live_health))
            emit("")
        if count and polls >= count:
            break
        _time.sleep(interval_s)
    if metrics_path is not None and telemetry is not None:
        written = write_metrics_jsonl(telemetry, metrics_path)
        emit(f"obs --follow: wrote {written} metric records to "
             f"{metrics_path} (final snapshot, diffable by "
             f"`repro.cli diff`)")
    return 0


@dataclasses.dataclass
class ObsRun:
    """One completed instrumented run plus everything derived from it."""

    telemetry: Telemetry
    duration_s: float
    seed: int
    #: Host-side profile, only when profiling was requested.
    profile: HostProfileReport | None = None

    def attribution(self) -> AttributionReport:
        """Critical-path attribution over this run's span log."""
        return attribute(records_from_telemetry(self.telemetry))


def instrumented_run(quick: bool = True, seed: int = 0,
                     profile: bool = False,
                     system: "CachingSystem | None" = None,
                     backend: str = "exact",
                     tail_threshold_ms: float | None = None,
                     tail_sample_every: int = 0) -> ObsRun:
    """Run the paper's workload with telemetry on; the obs core.

    ``backend`` selects histogram storage (``exact``/``sketch``);
    ``tail_threshold_ms``/``tail_sample_every`` attach a tail-based
    trace sampler (off by default, so every trace is kept).
    """
    duration = quick_duration(quick, quick_s=2 * MINUTE)
    config = WorkloadConfig(
        n_apps=30, duration_s=duration, seed=seed,
        testbed=TestbedConfig(
            seed=seed, enable_telemetry=True,
            telemetry_backend=backend,
            telemetry_tail_threshold_ms=tail_threshold_ms,
            telemetry_tail_sample_every=tail_sample_every))
    workload = Workload(config)

    profiles: list[HostProfile] = []

    def _profiler(bed: "Testbed", _system: "CachingSystem",
                  ) -> _t.Generator[object, object, None]:
        profiles.append(HostProfile(bed.sim).start())
        yield bed.sim.timeout(0.0)

    extra = [_profiler] if profile else []
    workload.run(system if system is not None else ApeCacheSystem(),
                 extra_processes=extra)
    bed: "Testbed" = workload._last_bed
    return ObsRun(telemetry=bed.telemetry, duration_s=duration,
                  seed=seed,
                  profile=profiles[0].stop() if profiles else None)


def run_obs(quick: bool = True, seed: int = 0,
            spans_path: str | None = None,
            profile: bool = False,
            metrics_path: str | None = None,
            trace_path: str | None = None,
            backend: str = "exact",
            tail_threshold_ms: float | None = None,
            tail_sample_every: int = 0,
            fleet: int = 0,
            top: int = 0) -> list[ExperimentTable]:
    """One telemetry-enabled APE-CACHE run, rendered as panels.

    ``fleet=N`` appends the merged-shard fleet rollup from an N-AP
    distributed Wi-Cache run; ``top=N`` appends the N slowest request
    traces with their per-stage self-time breakdown.
    """
    run = instrumented_run(quick, seed, profile=profile,
                           backend=backend,
                           tail_threshold_ms=tail_threshold_ms,
                           tail_sample_every=tail_sample_every)
    telemetry = run.telemetry

    report = run.attribution()
    tables = [stage_table(telemetry), report.table(),
              hit_ratio_table(telemetry)]
    live_health = live_health_table(telemetry)
    if live_health is not None:  # live-engine telemetry only
        tables.append(live_health)
    tables[0].notes.append(
        f"{len(telemetry.spans)} spans, "
        f"{len(telemetry.instruments())} instruments recorded over "
        f"{run.duration_s:.0f} sim-s (seed {seed})")
    if backend != "exact":
        tables[0].notes.append(
            f"histogram backend: {backend} (percentiles within the "
            f"declared relative-error bound of exact)")
    sampler = telemetry.spans.sampler
    if sampler is not None:
        stats = sampler.stats()
        tables[0].notes.append(
            f"tail sampler: kept {sampler.kept_traces}/"
            f"{stats['roots_seen']} traces (tail={stats['kept_tail']} "
            f"error={stats['kept_error']} "
            f"sampled={stats['kept_sampled']}), dropped "
            f"{stats['dropped_spans']} spans")
    if spans_path is not None:
        count = write_spans_jsonl(telemetry, spans_path)
        tables[0].notes.append(f"wrote {count} spans to {spans_path}")
    if metrics_path is not None:
        count = write_metrics_jsonl(telemetry, metrics_path)
        tables[0].notes.append(
            f"wrote {count} metric records to {metrics_path}")
    if trace_path is not None:
        from repro.telemetry.tracefmt import write_chrome_trace

        count = write_chrome_trace(records_from_telemetry(telemetry),
                                   trace_path)
        tables[0].notes.append(
            f"wrote {count} spans as a Chrome trace to {trace_path} "
            f"(open in ui.perfetto.dev)")
    if run.profile is not None:
        tables[0].notes.append(run.profile.render())
    if top:
        tables.append(top_traces_table(report, top))
    if fleet:
        tables.extend(fleet_tables(n_aps=fleet, quick=quick, seed=seed))
    return tables


# ----------------------------------------------------------------------
# Top-N slowest traces
# ----------------------------------------------------------------------
def top_traces_table(report: AttributionReport,
                     n: int) -> ExperimentTable:
    """The ``n`` slowest request traces, with per-stage self-times."""
    table = ExperimentTable(
        title=f"obs: top {n} slowest request traces",
        columns=["trace", "app", "source", "weight", "total_ms",
                 "stage_breakdown"])
    ranked = sorted(report.requests,
                    key=lambda attribution: (-attribution.total_ms,
                                             attribution.trace_id))
    for attribution in ranked[:n]:
        stages = sorted(attribution.self_ms.items(),
                        key=lambda item: (-item[1], item[0]))
        breakdown = " | ".join(f"{stage} {self_ms:.2f}"
                               for stage, self_ms in stages
                               if self_ms > 0.0)
        weight = f"{attribution.weight:g}"
        if attribution.sample_reason:
            weight += f" ({attribution.sample_reason})"
        table.add_row(trace=attribution.trace_id, app=attribution.app,
                      source=attribution.source, weight=weight,
                      total_ms=attribution.total_ms,
                      stage_breakdown=breakdown)
    table.notes.append(
        "ranked by end-to-end duration; breakdown is per-stage "
        "self-time (each instant owned by the deepest active span)")
    if not report.requests:
        table.notes.append("no complete request traces recorded")
    return table


# ----------------------------------------------------------------------
# Fleet rollup (sharded registries -> one controller view)
# ----------------------------------------------------------------------
def fleet_table(merged: Telemetry, n_shards: int) -> ExperimentTable:
    """Per-AP stats from the merged fleet registry, plus a Gini note."""
    table = ExperimentTable(
        title="obs: fleet rollup (merged per-AP telemetry shards)",
        columns=["ap", "fetches", "hit_ratio", "served", "fills",
                 "cache_mb", "serve_p95_ms"])
    fetches = merged.get("fleet.fetches")
    if not isinstance(fetches, Counter) or not fetches.labelsets():
        table.notes.append("no fleet.* instruments in the merged "
                           "registry (was the run instrumented?)")
        return table
    requests = merged.get("fleet.requests")
    fills = merged.get("fleet.fills")
    used = merged.get("fleet.cache_used_bytes")
    serve = merged.get("fleet.serve_ms")
    aps = sorted({str(dict(labels).get("ap", ""))
                  for labels in fetches.labelsets()})
    ratios = []
    for ap in aps:
        total = fetches.total(ap=ap)
        hits = fetches.total(ap=ap, hit="yes")
        ratio = hits / total if total else 0.0
        ratios.append(ratio)
        summary: dict[str, object] = {}
        if isinstance(serve, Histogram):
            summary = serve.summary(ap=ap)
        table.add_row(
            ap=ap, fetches=int(total), hit_ratio=ratio,
            served=(int(requests.total(ap=ap, hit="yes"))
                    if isinstance(requests, Counter) else 0),
            fills=(int(fills.total(ap=ap))
                   if isinstance(fills, Counter) else 0),
            cache_mb=(used.value(ap=ap) / _MB
                      if isinstance(used, Gauge) else 0.0),
            serve_p95_ms=_t.cast(float, summary.get("p95", 0.0)))
    table.notes.append(
        f"Gini over per-AP hit ratios: {gini(ratios):.3f} "
        f"(0 = perfectly even)")
    table.notes.append(
        f"merged from {n_shards} per-AP sketch shards via "
        f"Telemetry.merge (order-independent fold)")
    return table


def fleet_tables(n_aps: int = 2, quick: bool = True,
                 seed: int = 0) -> list[ExperimentTable]:
    """Run an instrumented N-AP distributed Wi-Cache fleet and render
    the controller's merged-shard view."""
    from repro.apps.executor import AppRunner
    from repro.apps.generator import DummyAppParams, generate_apps
    from repro.apps.workload import zipf_rates
    from repro.baselines.multi_ap import WiCacheDistributedSystem

    duration = quick_duration(quick, quick_s=2 * MINUTE)
    bed = Testbed(TestbedConfig(seed=seed, enable_telemetry=True))
    system = WiCacheDistributedSystem(n_aps=n_aps,
                                      cache_capacity_per_ap=2 * _MB)
    system.install(bed)
    apps = generate_apps(24, seed=seed, params=DummyAppParams())
    rates = zipf_rates(24, 0.8, 3.0)

    def _drive(runner: AppRunner, rate_per_s: float,
               ) -> _t.Generator[object, object, None]:
        rng = bed.streams.stream(f"obsfleet:{runner.app.app_id}")
        while True:
            yield bed.sim.timeout(rng.expovariate(rate_per_s))
            yield bed.sim.process(runner.execute())

    for index, (app, rate) in enumerate(zip(apps, rates)):
        home = system.home_ap_name(index)
        node = bed.add_client(f"client-{app.app_id}", ap_name=home)
        fetcher = system.new_fetcher(bed, node, app.app_id)
        for obj in app.objects:
            bed.host_object(obj.url, obj.size_bytes,
                            origin_delay_s=obj.origin_delay_s)
        bed.sim.process(_drive(AppRunner(bed.sim, app, fetcher), rate))
    bed.run(until=duration)

    table = fleet_table(system.fleet_rollup(), len(system.shards))
    table.notes.append(
        f"{n_aps} APs, 24 apps round-robin over home APs, "
        f"{duration:.0f} sim-s (seed {seed})")
    return [table]


if __name__ == "__main__":  # pragma: no cover
    for table in run_obs():
        print(table)
        print()
