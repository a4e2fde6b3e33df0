"""One run of one workload, untraced or traced, as a report dict.

Untraced run: set up `SETUP_REPEATS` times (the median is `setup_s`),
measure for `seconds` on the last set-up with no wrapper installed,
report the end-to-end metrics.  Traced run: one set-up, then the real
load shape untraced (the counters), one fetch in flight untraced (the
baseline for the tracing overhead) and one fetch in flight with the
timing wrappers installed (the timings, the self-time table, the
residual), splitting `seconds` 40/20/40.
"""

from __future__ import annotations

import asyncio
import gc
import os
import time
import typing as _t

from bench import OUT_DIR, layers, live, simload, trace
from bench.checks import Check, expect
from bench.inputs import build_live_inputs
from bench.metrics import (
    END_TO_END,
    NOISY_LATE_P99_MS,
    NOISY_SELF_SHARE,
    PER_LAYER,
)
from bench.stats import median

SETUP_REPEATS = 3
#: Shares of a traced run's `seconds`: real load shape untraced, one
#: in flight untraced, one in flight traced.
TRACED_SPLIT = (0.4, 0.2, 0.4)
SIM = "sim_paper_mix"
MIN_REPETITIONS = 3

Report = dict[str, _t.Any]


def run(workload: str, seed: int, seconds: float, traced: bool,
        smoke: bool, imports_s: float) -> Report:
    """Measure one workload once; never raises on a failed check."""
    if workload == SIM:
        body = (_sim_traced if traced else _sim_untraced)(
            seed, seconds, smoke, imports_s)
    else:
        body = asyncio.run((_live_traced if traced else _live_untraced)(
            workload, seed, seconds, imports_s))
    checks: list[Check] = body.pop("checks")
    report: Report = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(traced), "smoke": smoke,
        "transport": "none (virtual time)" if workload == SIM
        else "loopback, in-process",
        "correct": all(check.ok for check in checks),
        "checks": [check.as_dict() for check in checks],
    }
    report.update(body)
    return report


def _metric_block(catalogue: _t.Sequence[_t.Any],
                  values: _t.Mapping[str, float | None],
                  spread: _t.Mapping[str, float] | None = None,
                  ) -> dict[str, dict[str, object]]:
    block = {}
    for metric in catalogue:
        entry: dict[str, object] = {"value": values[metric.name],
                                    "unit": metric.unit}
        if spread is not None:
            entry["spread"] = spread.get(metric.name)
        block[metric.name] = entry
    return block


def _end_to_end(summary: dict[str, _t.Any], setups: list[float],
                imports_s: float) -> dict[str, dict[str, object]]:
    values = {metric.name: summary.get(metric.name)
              for metric in END_TO_END}
    values["peak_rss_mb"] = summary["peak_rss_kib"] / 1024.0
    # Process entry to first measured request: imports once, then the
    # median of the repeated stack set-ups (construction, hosting,
    # socket binds, warm-up).
    values["setup_s"] = imports_s + median(setups)
    return _metric_block(END_TO_END, values, summary["spread"])


def _write_trace(workload: str, attribution: trace.Attribution,
                 virtual_spans: _t.Sequence[trace.Span] = ()) -> str:
    """Write `bench/out/trace-<workload>.jsonl`; its relative path."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{workload}.jsonl")
    trace.write_jsonl(path, attribution, virtual_spans)
    return os.path.relpath(path)


def _common(summary: dict[str, _t.Any]) -> Report:
    return {"attempted": summary["attempted"], "failed": summary["failed"],
            "slices": summary["slices"],
            "tail_samples_beyond": summary["tail_samples_beyond"],
            "all_samples": summary["all_samples"],
            "slice_values": summary["slice_values"]}


# ----------------------------------------------------------------------
# Live engine
# ----------------------------------------------------------------------
def settle_collector() -> None:
    """Collect, then move what survived out of the collector's sight.

    Importing numpy and networkx leaves some 300 000 objects behind; a
    full collection in the measured phase would walk all of them, a
    30-60 ms pause that lands in the open loop's tail at random.
    After `gc.freeze()` a full collection walks what the phase itself
    allocated.  The collector stays on.
    """
    gc.collect()
    gc.freeze()


async def _measured_phase(rig: live.LiveRig, seconds: float,
                          shape: str) -> dict[str, _t.Any]:
    """One untraced measured phase; `shape` is "real" or "one"."""
    trace.assert_unpatched()
    settle_collector()
    rig.max_in_flight = rig.ap_queue_max = 0
    rig.gen_busy_s = 0.0
    before = layers.live_counters(rig)
    log = live.FetchLog()
    if shape == "one":
        await rig.one_in_flight(seconds, log)
    elif rig.inputs.shape.open_rate_rps is not None:
        await rig.open_loop(log)
    else:
        await rig.closed_loop(seconds, log)
    summary = live.summarize(log, seconds, rig.inputs.shape.slo_ms)
    summary["peak_rss_kib"] = live.max_rss_kib()
    summary["counted"] = layers.delta(layers.live_counters(rig), before)
    summary["loop_lag_max_ms"] = layers.loop_lag_max_ms(
        rig.stack, before["loop_lag_samples"])
    summary["ap_queue_max"] = float(rig.ap_queue_max)
    summary["log"] = log
    summary["gen"] = {
        "gen.offered_rps": len(log) / summary["wall_s"],
        "gen.late_p99_ms": layers.late_p99_ms(log.sent, log.due),
        "gen.max_in_flight": float(rig.max_in_flight),
        "gen.self_share": rig.gen_busy_s / summary["cpu_s"],
    }
    return summary


def _noisy(gen: dict[str, float]) -> bool:
    return (gen["gen.late_p99_ms"] > NOISY_LATE_P99_MS
            or gen["gen.self_share"] > NOISY_SELF_SHARE)


async def _finish(rig: live.LiveRig) -> str | None:
    """Stop the stack; the failure nobody waited for, if any."""
    await rig.stop()
    try:
        rig.engine.raise_unwaited()
    except Exception as err:  # reported as a failed check
        return f"{type(err).__name__}: {err}"
    return None


async def _set_up(inputs: _t.Any, setups: list[float]) -> live.LiveRig:
    """A started, warmed-up rig; how long that took goes on `setups`."""
    started = live.clock()
    rig = live.LiveRig(inputs)
    await rig.start()
    setups.append(live.clock() - started)
    return rig


async def _live_untraced(workload: str, seed: int, seconds: float,
                         imports_s: float) -> Report:
    inputs = build_live_inputs(workload, seed, seconds)
    setups: list[float] = []
    for _attempt in range(SETUP_REPEATS - 1):
        rig = await _set_up(inputs, setups)
        await rig.stop()
    rig = await _set_up(inputs, setups)
    summary = await _measured_phase(rig, seconds, "real")
    unwaited = await _finish(rig)
    body = _common(summary)
    body.update({
        "inputs_sha256": inputs.digest(),
        "noisy": _noisy(summary["gen"]),
        "setups_s": setups, "imports_s": imports_s,
        "metrics": _end_to_end(summary, setups, imports_s),
        "checks": live.run_checks(
            rig, summary, summary["counted"]["edge_fetches"], unwaited),
    })
    return body


async def _live_traced(workload: str, seed: int, seconds: float,
                       imports_s: float) -> Report:
    real_s, base_s, traced_s = (seconds * share for share in TRACED_SPLIT)
    inputs = build_live_inputs(workload, seed, real_s)
    rig = live.LiveRig(inputs)
    await rig.start()
    real = await _measured_phase(rig, real_s, "real")
    base = await _measured_phase(rig, base_s, "one")

    tracer = trace.Tracer()
    tracer.install()
    tracer.install_on_loop(asyncio.get_running_loop())
    rig.tracer = tracer
    log = live.FetchLog()
    try:
        await rig.one_in_flight(traced_s, log)
    finally:
        tracer.remove()
        rig.tracer = None
    traced = live.summarize(log, traced_s, inputs.shape.slo_ms)
    unwaited = await _finish(rig)

    requests = len(log)
    attribution = trace.attribute(tracer.spans)
    self_ms = attribution.self_ms_per_request()
    # What the sweep left on the harness's own request interval; the
    # table derives the same quantity as latency minus the rows.
    uncovered_ms = self_ms.pop(trace.REQUEST, 0.0)
    rows, values = layers.self_time_table(
        self_ms, traced["latency_mean_ms"],
        layers.SpanStats(tracer.spans), requests)
    values.update(layers.from_trace(tracer, requests, live=True))
    values["core.client_self_us"] = \
        self_ms.get("core.client_fetch", 0.0) * 1e3
    values["telemetry.busy_share"] = layers.telemetry_busy_share(
        attribution, traced["cpu_s"])
    values["trace.overhead_pct"] = (
        traced["cpu_us_per_request"] / base["cpu_us_per_request"]
        - 1.0) * 100.0

    counted = real["counted"]
    served = len(real["log"])
    values.update(layers.from_counters(counted, served, real["wall_s"]))
    values.update(real["gen"])
    values.update({
        "httplib.tcp_exchanges_per_req": counted["tcp_exchanges"] / served,
        "engine.udp_exchanges_per_req": counted["udp_exchanges"] / served,
        "engine.request_timeouts": counted["request_timeouts"],
        "engine.loop_lag_max_ms": real["loop_lag_max_ms"],
        "net.ap_cpu_queue_max": real["ap_queue_max"],
        "telemetry.rss_growth_kb_per_kreq": layers.rss_growth_kb_per_kreq(
            real["slice_rss_kib"], served),
        "cache.latency_saved_ms_per_mb": _latency_saved(
            rig, [real["log"], rig.warmup_log]),
    })

    trace_file = _write_trace(workload, attribution)

    body = _common(real)
    for phase in (base, traced):
        body["attempted"] += phase["attempted"]
        body["failed"] += phase["failed"]
    checks = live.run_checks(rig, real, counted["edge_fetches"], unwaited)
    checks.append(expect(
        "self times and residual add up to the mean fetch latency",
        abs(values["trace.residual_ms"] - uncovered_ms)
        <= 0.01 * traced["latency_mean_ms"],
        f"latency - rows = {values['trace.residual_ms']:.6f} ms, "
        f"uncovered by any span = {uncovered_ms:.6f} ms"))
    checks.append(expect(
        "one-in-flight fetches all correct",
        base["failed"] + traced["failed"] == 0,
        base["first_problem"] or traced["first_problem"] or ""))
    checks.append(expect("wrappers removed after the traced phase",
                         not trace.patched_names(), trace.patched_names()))
    body.update({
        "inputs_sha256": inputs.digest(),
        "noisy": _noisy(real["gen"]),
        "metrics": _metric_block(PER_LAYER, layers.complete(values)),
        "self_time": rows,
        "traced": {"requests": requests, "spans": len(tracer.spans),
                   "latency_mean_ms": traced["latency_mean_ms"],
                   "cpu_us_per_request": traced["cpu_us_per_request"],
                   "untraced_cpu_us_per_request":
                       base["cpu_us_per_request"],
                   "trace_file": trace_file},
        "checks": checks,
    })
    return body


def _latency_saved(rig: live.LiveRig,
                   logs: _t.Sequence[live.FetchLog]) -> float | None:
    """Hits of the measured phase against the mean latency of every
    fetch that reached the edge (the warm-up's delegations count: the
    hit workloads have no others)."""
    measured = logs[0]
    hit_ms = [latency for latency, hit
              in zip(measured.latencies_ms(), measured.hit) if hit]
    miss_ms = [latency for log in logs
               for latency, hit, problem
               in zip(log.latencies_ms(), log.hit, log.problem)
               if not hit and problem is None]
    return layers.latency_saved_ms_per_mb(
        hit_ms, miss_ms, len(measured),
        rig.stack.ap_runtime.store.capacity_bytes)


# ----------------------------------------------------------------------
# Sim engine
# ----------------------------------------------------------------------
def _repeat(seed: int, seconds: float, virtual_s: float,
            at_least: int) -> list[simload.Repetition]:
    """Same-seed repetitions until `seconds` are used up."""
    repetitions: list[simload.Repetition] = []
    started = time.perf_counter()
    while True:
        trace.assert_unpatched()
        settle_collector()
        repetitions.append(simload.run_repetition(seed, virtual_s))
        used = time.perf_counter() - started
        if len(repetitions) >= at_least and \
                used + repetitions[-1].wall_s > seconds:
            return repetitions


def _sim_untraced(seed: int, seconds: float, smoke: bool,
                  imports_s: float) -> Report:
    setups = [simload.set_up_once(seed) for _attempt in range(SETUP_REPEATS)]
    # `--smoke`: one repetition, so no same-seed comparison.
    repetitions = _repeat(seed, seconds, simload.REPETITION_VIRTUAL_S,
                          1 if smoke else MIN_REPETITIONS)
    summary = simload.summarize(repetitions)
    summary["peak_rss_kib"] = live.max_rss_kib()
    body = _common(summary)
    body.update({
        "inputs_sha256": summary["fingerprint"]["virtual_latencies_sha256"],
        "noisy": False,
        "setups_s": setups, "imports_s": imports_s,
        "fingerprint": summary["fingerprint"],
        "metrics": _end_to_end(summary, setups, imports_s),
        "checks": simload.run_checks(repetitions, summary),
    })
    return body


def _sim_traced(seed: int, seconds: float, smoke: bool,
                imports_s: float) -> Report:
    virtual_s = simload.REPETITION_VIRTUAL_S
    untraced = _repeat(seed, seconds * (1.0 - TRACED_SPLIT[2]), virtual_s, 1)
    summary = simload.summarize(untraced)
    repetition, tracer = simload.run_traced_repetition(seed, virtual_s)
    fetches = repetition.fetches

    attribution = trace.attribute(tracer.spans)
    totals: dict[str, float] = {}
    for span, self_ns in zip(attribution.spans, attribution.self_ns):
        totals[span[0]] = totals.get(span[0], 0.0) + self_ns
    self_ms = {name: total / 1e6 / fetches for name, total in totals.items()}
    rows, values = layers.self_time_table(
        self_ms, repetition.wall_s * 1e3 / fetches,
        layers.SpanStats(tracer.spans), fetches)
    values.update(layers.from_trace(tracer, fetches, live=False))
    values["telemetry.busy_share"] = layers.telemetry_busy_share(
        attribution, repetition.cpu_s)
    values["trace.overhead_pct"] = (
        repetition.cpu_s * 1e6 / fetches / summary["cpu_us_per_request"]
        - 1.0) * 100.0

    first = untraced[0]
    counted = first.counters
    values.update(layers.from_counters(counted, first.fetches,
                                       first.virtual_s))
    hit_ms = [latency for latency, hit
              in zip(first.latencies_ms, first.hits) if hit]
    miss_ms = [latency for latency, hit
               in zip(first.latencies_ms, first.hits) if not hit]
    wall_s = median([rep.wall_s for rep in untraced])
    values.update({
        "sim.events_per_req": counted["events"] / first.fetches,
        "sim.events_per_s": counted["events"] / wall_s,
        "sim.virtual_s_per_wall_s": first.virtual_s / wall_s,
        "cache.latency_saved_ms_per_mb": layers.latency_saved_ms_per_mb(
            hit_ms, miss_ms, first.fetches, first.cache_bytes),
    })

    trace_file = _write_trace(SIM, attribution, tracer.virtual_spans)

    checks = simload.run_checks(untraced + [repetition], summary)
    checks.append(expect("wrappers removed after the traced repetition",
                         not trace.patched_names(), trace.patched_names()))
    body = _common(summary)
    body.update({
        "inputs_sha256": summary["fingerprint"]["virtual_latencies_sha256"],
        "noisy": False,
        "fingerprint": summary["fingerprint"],
        "metrics": _metric_block(PER_LAYER, layers.complete(values)),
        "self_time": rows,
        "traced": {"requests": fetches, "spans": len(tracer.spans),
                   "wall_ms_per_request": repetition.wall_s * 1e3 / fetches,
                   "cpu_us_per_request": repetition.cpu_s * 1e6 / fetches,
                   "untraced_cpu_us_per_request":
                       summary["cpu_us_per_request"],
                   "trace_file": trace_file},
        "checks": checks,
    })
    return body
