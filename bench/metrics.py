"""Names, units, directions and bounds of everything the benchmark reports.

`BENCHMARK.json` at the repository root records the same lists for the
driver; `bench/tests/test_contract.py` keeps the two in step.
"""

from __future__ import annotations

import dataclasses

from bench.trace import SPAN_NAMES


@dataclasses.dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen
    #: before a change counts as a regression; None = never gated.
    bound: float | None = None


WORKLOADS: dict[str, str] = {
    "live_hit_open": (
        "Live engine, open loop at 100 rps, everything resident: every "
        "fetch pays one DNS-Cache UDP exchange plus one AP HTTP hit, "
        "timed from when it was due."),
    "live_hit_closed": (
        "Live engine, 2 devices back to back, flags cached: each fetch "
        "is one TCP exchange with the AP and nothing else, so dnslib "
        "is idle and connection handling is everything."),
    "live_churn_closed": (
        "Live engine, 2 devices, catalog 16x the AP cache, Zipf 0.8: "
        "admissions, PACM victim selection, knapsack and the AP-to-edge "
        "second exchange run beside the hit path."),
    "sim_paper_mix": (
        "Sim engine, the paper's 30-app mix with telemetry on, repeated "
        "with one seed: kernel, delay model, core, cache and DNS codec "
        "run, sockets do not; virtual-time outputs must repeat exactly."),
}

#: Kept never-zero so a relative bound means something: the shares of
#: fetches that *met* the limit, *succeeded* and *hit*, not the misses.
#: A bound is three times the spread (quartile distance over median)
#: the metric showed over ten runs on its least steady workload, or the
#: contract's cap of 0.25 where that is less; see the README's table
#: of measured spreads.  The shares that read exactly 1 on every
#: healthy run keep a bound near the issue's absolute one.
END_TO_END: tuple[Metric, ...] = (
    Metric("latency_p50_ms", "ms", "lower", 0.25),
    Metric("latency_p90_ms", "ms", "lower", 0.25),
    Metric("slo_met_share", "ratio", "higher", 0.01),
    Metric("throughput_rps", "1/s", "higher", 0.25),
    Metric("cpu_us_per_request", "us", "lower", 0.25),
    Metric("ok_share", "ratio", "higher", 0.001),
    Metric("ap_hit_share", "ratio", "higher", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.10),
    Metric("setup_s", "s", "lower", 0.25),
)

_LOWER, _HIGHER = "lower", "higher"

PER_LAYER: tuple[Metric, ...] = (
    Metric("dnslib.encode_us", "us", _LOWER),
    Metric("dnslib.decode_us", "us", _LOWER),
    Metric("dnslib.codec_calls_per_req", "count", _LOWER),
    Metric("dnslib.exchange_ms", "ms", _LOWER),
    Metric("dnslib.queries_per_req", "count", _LOWER),
    Metric("dnslib.flag_table_hit_share", "ratio", _HIGHER),
    Metric("httplib.encode_request_us", "us", _LOWER),
    Metric("httplib.encode_response_us", "us", _LOWER),
    Metric("httplib.read_request_ms", "ms", _LOWER),
    Metric("httplib.read_response_ms", "ms", _LOWER),
    Metric("httplib.wire_bytes_per_req", "B", _LOWER),
    Metric("httplib.tcp_exchanges_per_req", "count", _LOWER),
    Metric("cache.get_us", "us", _LOWER),
    Metric("cache.admit_us", "us", _LOWER),
    Metric("cache.select_victims_us", "us", _LOWER),
    Metric("cache.knapsack_us", "us", _LOWER),
    Metric("cache.knapsack_items", "count", _LOWER),
    Metric("cache.admits_per_req", "count", _LOWER),
    Metric("cache.evictions_per_admit", "count", _LOWER),
    Metric("cache.admit_reject_share", "ratio", _LOWER),
    Metric("cache.store_hit_share", "ratio", _HIGHER),
    Metric("cache.latency_saved_ms_per_mb", "ms/MiB", _HIGHER),
    Metric("core.ap_serve_ms", "ms", _LOWER),
    Metric("core.ap_dns_ms", "ms", _LOWER),
    Metric("core.edge_serve_ms", "ms", _LOWER),
    Metric("core.delegations_per_req", "count", _LOWER),
    Metric("core.edge_fetches_per_req", "count", _LOWER),
    Metric("core.pacm_runs_per_req", "count", _LOWER),
    Metric("core.stale_fetch_share", "ratio", _LOWER),
    Metric("core.coalesced_share", "ratio", _HIGHER),
    Metric("core.client_self_us", "us", _LOWER),
    Metric("net.ap_cpu_utilization", "ratio", _LOWER),
    Metric("net.ap_cpu_completed_per_req", "count", _LOWER),
    Metric("net.ap_cpu_sojourn_ms", "ms", _LOWER),
    Metric("net.ap_cpu_queue_max", "count", _LOWER),
    Metric("engine.udp_rtt_ms", "ms", _LOWER),
    Metric("engine.tcp_rtt_ms", "ms", _LOWER),
    Metric("engine.timer_overrun_ms", "ms", _LOWER),
    Metric("engine.processes_per_req", "count", _LOWER),
    Metric("engine.timeouts_per_req", "count", _LOWER),
    Metric("engine.bridges_per_req", "count", _LOWER),
    Metric("engine.loop_callbacks_per_req", "count", _LOWER),
    Metric("engine.tasks_per_req", "count", _LOWER),
    Metric("engine.loop_lag_max_ms", "ms", _LOWER),
    Metric("engine.udp_exchanges_per_req", "count", _LOWER),
    Metric("engine.request_timeouts", "count", _LOWER),
    Metric("sim.events_per_req", "count", _LOWER),
    Metric("sim.events_per_s", "1/s", _HIGHER),
    Metric("sim.virtual_s_per_wall_s", "ratio", _HIGHER),
    Metric("sim.processes_per_req", "count", _LOWER),
    Metric("telemetry.observe_us", "us", _LOWER),
    Metric("telemetry.inc_us", "us", _LOWER),
    Metric("telemetry.span_us", "us", _LOWER),
    Metric("telemetry.observes_per_req", "count", _LOWER),
    Metric("telemetry.incs_per_req", "count", _LOWER),
    Metric("telemetry.spans_per_req", "count", _LOWER),
    Metric("telemetry.busy_share", "ratio", _LOWER),
    Metric("telemetry.rss_growth_kb_per_kreq", "KiB", _LOWER),
    Metric("gen.offered_rps", "1/s", _HIGHER),
    Metric("gen.late_p99_ms", "ms", _LOWER),
    Metric("gen.max_in_flight", "count", _LOWER),
    Metric("gen.self_share", "ratio", _LOWER),
    *(Metric(f"trace.self_ms.{name}", "ms", _LOWER) for name in SPAN_NAMES),
    Metric("trace.residual_ms", "ms", _LOWER),
    Metric("trace.residual_share", "ratio", _LOWER),
    Metric("trace.overhead_pct", "%", _LOWER),
)

#: The generator is in the way of what it measures beyond these.  It
#: shares the loop with the stack, and the loop's timers are a
#: millisecond coarse, so sends leave 1-2 ms late on a healthy run.
NOISY_LATE_P99_MS = 5.0
NOISY_SELF_SHARE = 0.1


def as_benchmark_json(run_seconds: int) -> dict[str, object]:
    """The document `BENCHMARK.json` holds."""
    return {
        "command": ["python3", "-m", "bench.run"],
        "paths": ["bench"],
        "run_seconds": run_seconds,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": metric.name, "unit": metric.unit,
             "better": metric.better, "bound": metric.bound}
            for metric in END_TO_END],
        "per_layer": [
            {"name": metric.name, "unit": metric.unit,
             "better": metric.better} for metric in PER_LAYER],
    }
