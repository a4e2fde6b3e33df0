"""Per-layer metrics: counters read from public attributes, timings
from the traced run.

*Counters* cost nothing: they are attributes the program keeps anyway,
read before and after the untraced measured phase.  *Timings* come from
the spans the wrappers of `bench.trace` recorded.  A metric whose layer
did not run on a workload is None (`httplib.*` on the sim engine).
"""

from __future__ import annotations

import collections
import typing as _t

from bench import trace
from bench.metrics import PER_LAYER
from bench.stats import percentile

Values = dict[str, float | None]

_MIB = 1024.0 * 1024.0


def _ratio(numerator: float, denominator: float) -> float | None:
    return numerator / denominator if denominator else None


# ----------------------------------------------------------------------
# Counters
# ----------------------------------------------------------------------
def ap_counters(ap_runtime: _t.Any, ap_node: _t.Any, telemetry: _t.Any,
                engine: _t.Any) -> dict[str, float]:
    """What both engines' stacks count on the AP, as of now."""
    lookups = telemetry.get("cache.lookups")
    return {
        "delegations": ap_runtime.delegations,
        "edge_fetches": ap_runtime.edge_fetches,
        "pacm_runs": ap_runtime.pacm_runs,
        "stale_fetches": ap_runtime.stale_fetches,
        "coalesced_fetches": ap_runtime.coalesced_fetches,
        "ap_dns_cache_queries": ap_runtime.dns_cache_queries,
        "insertions": ap_runtime.store.insertions,
        "evictions": ap_runtime.store.evictions,
        "store_hits": lookups.value(tier="ap", outcome="hit")
        if lookups is not None else 0.0,
        "store_lookups": lookups.total(tier="ap")
        if lookups is not None else 0.0,
        "ap_cpu_busy_s": ap_node.cpu.busy_time,
        "ap_cpu_completed": ap_node.cpu.completed,
        "events": engine.events_processed,
    }


def live_counters(rig: _t.Any) -> dict[str, float]:
    stack = rig.stack
    counters = ap_counters(stack.ap_runtime, stack.ap, stack.telemetry,
                           stack.engine)
    clients = [client for per_app in rig.clients for client in per_app]
    timeouts = stack.telemetry.get("live.request_timeouts")
    counters.update({
        "dns_queries": sum(client.dns_cache_queries for client in clients),
        "flag_table_hits": sum(client.flag_table_hits
                               for client in clients),
        "tcp_exchanges": stack.transport.tcp_exchanges,
        "udp_exchanges": stack.transport.udp_exchanges,
        "request_timeouts": timeouts.total() if timeouts is not None
        else 0.0,
        "loop_lag_samples": len(_loop_lag_samples(stack)),
    })
    return counters


def _loop_lag_samples(stack: _t.Any) -> list[float]:
    histogram = stack.telemetry.get("live.loop_lag_ms")
    return histogram.samples() if histogram is not None else []


def loop_lag_max_ms(stack: _t.Any, samples_before: float) -> float | None:
    """Largest watchdog probe delay since `samples_before` probes."""
    fresh = _loop_lag_samples(stack)[int(samples_before):]
    return max(fresh) if fresh else None


def delta(after: dict[str, float],
          before: dict[str, float]) -> dict[str, float]:
    return {key: after[key] - before.get(key, 0.0) for key in after}


def latency_saved_ms_per_mb(hit_ms: _t.Sequence[float],
                            miss_ms: _t.Sequence[float], attempted: int,
                            cache_bytes: int) -> float | None:
    """Mean latency a fetch saved by hitting the AP cache, per MiB of
    cache: sum over AP hits of (mean latency of fetches that reached
    the edge - this hit's latency) / fetches / cache MiB — LAC's unit,
    latency saved per byte cached."""
    if not miss_ms or not attempted:
        return None
    mean_miss = sum(miss_ms) / len(miss_ms)
    saved = sum(mean_miss - latency for latency in hit_ms)
    return saved / attempted / (cache_bytes / _MIB)


def from_counters(counted: dict[str, float], requests: int,
                  elapsed_s: float) -> Values:
    """Metrics both engines derive from the AP's counters; `elapsed_s`
    is on the engine's own clock (wall or virtual)."""
    lookups = counted["dns_queries"] + counted["flag_table_hits"]
    return {
        "dnslib.queries_per_req": counted["dns_queries"] / requests,
        "dnslib.flag_table_hit_share": _ratio(counted["flag_table_hits"],
                                              lookups),
        "cache.admits_per_req": counted["insertions"] / requests,
        "cache.evictions_per_admit": _ratio(counted["evictions"],
                                            counted["insertions"]),
        "cache.store_hit_share": _ratio(counted["store_hits"],
                                        counted["store_lookups"]),
        "core.delegations_per_req": counted["delegations"] / requests,
        "core.edge_fetches_per_req": counted["edge_fetches"] / requests,
        "core.pacm_runs_per_req": counted["pacm_runs"] / requests,
        "core.stale_fetch_share": counted["stale_fetches"] / requests,
        "core.coalesced_share": _ratio(counted["coalesced_fetches"],
                                       counted["delegations"]),
        "net.ap_cpu_utilization": counted["ap_cpu_busy_s"] / elapsed_s,
        "net.ap_cpu_completed_per_req":
            counted["ap_cpu_completed"] / requests,
    }


def rss_growth_kb_per_kreq(slice_rss_kib: _t.Sequence[int],
                           requests: int) -> float | None:
    """Peak-RSS growth from the end of the first slice to the end of
    the last, per thousand requests (the span log is unbounded)."""
    if len(slice_rss_kib) < 2 or not requests:
        return None
    covered = requests * (len(slice_rss_kib) - 1) / len(slice_rss_kib)
    return (slice_rss_kib[-1] - slice_rss_kib[0]) / (covered / 1000.0)


# ----------------------------------------------------------------------
# Timings from the traced run
# ----------------------------------------------------------------------
class SpanStats:
    """Calls, total duration and measured values, by span name."""

    def __init__(self, spans: _t.Iterable[trace.Span]) -> None:
        self.calls: collections.Counter[str] = collections.Counter()
        self.total_ns: collections.Counter[str] = collections.Counter()
        self.values: dict[str, list[float]] = collections.defaultdict(list)
        for name, start, end, value in spans:
            self.calls[name] += 1
            self.total_ns[name] += end - start
            if value is not None:
                self.values[name].append(value)

    def mean(self, name: str, scale: float) -> float | None:
        """Mean duration per call, in units of `scale` ns."""
        calls = self.calls[name]
        return self.total_ns[name] / calls / scale if calls else None

    def mean_value(self, name: str) -> float | None:
        values = self.values.get(name)
        return sum(values) / len(values) if values else None


def from_trace(tracer: trace.Tracer, requests: int, live: bool) -> Values:
    """Per-call timings and per-request call counts.

    On the live engine every span is in wall time; on the sim engine
    generator spans were taken on the virtual clock, so `*_ms` of a
    handler or a CPU hold is modelled time there.
    """
    wall = SpanStats(tracer.spans)
    long = wall if live else SpanStats(tracer.virtual_spans)
    us, ms = 1e3, 1e6
    codec_calls = wall.calls["dnslib.encode"] + wall.calls["dnslib.decode"]
    spans_made = wall.calls["telemetry.span"] / 3.0
    sojourn = long.mean_value("net.ap_cpu")
    admitted = wall.mean_value("cache.admit")
    values: Values = {
        "dnslib.encode_us": wall.mean("dnslib.encode", us),
        "dnslib.decode_us": wall.mean("dnslib.decode", us),
        "dnslib.codec_calls_per_req": codec_calls / requests,
        "dnslib.exchange_ms": long.mean("dnslib.exchange", ms),
        "cache.get_us": wall.mean("cache.get", us),
        "cache.admit_us": wall.mean("cache.admit", us),
        "cache.select_victims_us": wall.mean("cache.select_victims", us),
        "cache.knapsack_us": wall.mean("cache.knapsack", us),
        "cache.knapsack_items": wall.mean_value("cache.knapsack"),
        "cache.admit_reject_share":
            None if admitted is None else 1.0 - admitted,
        "core.ap_serve_ms": long.mean("core.ap_serve", ms),
        "core.ap_dns_ms": long.mean("core.ap_dns", ms),
        "core.edge_serve_ms": long.mean("core.edge_serve", ms),
        "net.ap_cpu_sojourn_ms":
            None if sojourn is None else sojourn * 1e3,
        "telemetry.observe_us": wall.mean("telemetry.observe", us),
        "telemetry.inc_us": wall.mean("telemetry.inc", us),
        "telemetry.span_us":
            wall.total_ns["telemetry.span"] / spans_made / us
            if spans_made else None,
        "telemetry.observes_per_req":
            wall.calls["telemetry.observe"] / requests,
        "telemetry.incs_per_req": wall.calls["telemetry.inc"] / requests,
        "telemetry.spans_per_req": spans_made / requests,
    }
    if live:
        wire = (sum(wall.values.get("httplib.encode_request", ()))
                + sum(wall.values.get("httplib.encode_response", ())))
        overruns = tracer.timer_overruns
        values.update({
            "httplib.encode_request_us":
                wall.mean("httplib.encode_request", us),
            "httplib.encode_response_us":
                wall.mean("httplib.encode_response", us),
            "httplib.read_request_ms": wall.mean("httplib.read_request", ms),
            "httplib.read_response_ms":
                wall.mean("httplib.read_response", ms),
            "httplib.wire_bytes_per_req": wire / requests,
            "engine.udp_rtt_ms": wall.mean("engine.udp_rtt", ms),
            "engine.tcp_rtt_ms": wall.mean("engine.tcp_rtt", ms),
            "engine.timer_overrun_ms":
                sum(overruns) / len(overruns) / ms if overruns else None,
            "engine.processes_per_req":
                tracer.counts["engine.processes"] / requests,
            "engine.timeouts_per_req":
                tracer.counts["engine.timeouts"] / requests,
            "engine.bridges_per_req":
                tracer.counts["engine.bridges"] / requests,
            "engine.loop_callbacks_per_req":
                tracer.counts["engine.loop_callbacks"] / requests,
            "engine.tasks_per_req": tracer.counts["engine.tasks"] / requests,
        })
    else:
        values["sim.processes_per_req"] = \
            tracer.counts["sim.processes"] / requests
        values["net.ap_cpu_queue_max"] = \
            float(tracer.counts["net.ap_cpu_queue_max"])
    return values


def self_time_table(self_ms: dict[str, float], total_ms: float,
                    stats: SpanStats, requests: int,
                    ) -> tuple[list[dict[str, object]], Values]:
    """The self-time table and its `trace.*` metrics.

    `self_ms` is mean self time per fetch by span name; `total_ms` the
    mean fetch latency (live) or wall time per fetch (sim).  Rows plus
    the residual add up to `total_ms`.
    """
    rows = []
    values: Values = {}
    covered = 0.0
    for name in trace.SPAN_NAMES:
        own = self_ms.get(name)
        values[f"trace.self_ms.{name}"] = own
        if own is None:
            continue
        covered += own
        rows.append({"span": name,
                     "calls_per_req": stats.calls[name] / requests,
                     "self_ms": own, "share": own / total_ms})
    residual = total_ms - covered
    rows.append({"span": "(residual)", "calls_per_req": None,
                 "self_ms": residual, "share": residual / total_ms})
    values["trace.residual_ms"] = residual
    values["trace.residual_share"] = residual / total_ms
    return rows, values


def telemetry_busy_share(attribution: trace.Attribution,
                         cpu_s: float) -> float | None:
    """Self time of every telemetry call / CPU time of the traced phase."""
    busy_ns = sum(self_ns for span, self_ns
                  in zip(attribution.spans, attribution.self_ns)
                  if span[0].startswith("telemetry."))
    return busy_ns / 1e9 / cpu_s if cpu_s else None


def complete(values: Values) -> Values:
    """Every per-layer name, in catalogue order; absent = None."""
    unknown = set(values) - {metric.name for metric in PER_LAYER}
    if unknown:
        raise KeyError(f"not in the per-layer catalogue: {sorted(unknown)}")
    return {metric.name: values.get(metric.name) for metric in PER_LAYER}


def late_p99_ms(sent: _t.Sequence[float], due: _t.Sequence[float]) -> float:
    return percentile(sorted((s - d) * 1e3 for s, d in zip(sent, due)), 99.0)
