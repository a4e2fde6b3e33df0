"""`sim_paper_mix`: the paper's section V-A workload on the sim engine.

One repetition is `Workload(WorkloadConfig(n_apps=30, ...)).run(
ApeCacheSystem())` for a fixed stretch of virtual time on a fresh
testbed with telemetry on — what regenerating EXPERIMENTS.md pays.  A
run repeats the same seed; wall-clock numbers are the median
repetition and everything in virtual time must repeat exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
import typing as _t

from repro.apps.workload import Workload, WorkloadConfig
from repro.baselines.ape import ApeCacheSystem
from repro.httplib.url import Url
from repro.testbed import Testbed, TestbedConfig

from bench import layers, trace
from bench.checks import Check, check_fetch, expect
from bench.live import all_samples
from bench.stats import TAIL_PERCENTILE, iqr_share, median, percentile

#: Virtual seconds one repetition simulates: about 3 000 fetches and
#: 2 s of wall time, so a run holds enough repetitions for a median.
REPETITION_VIRTUAL_S = 300.0
#: The app suite is the one the experiments use (two real apps plus the
#: 28 `generate_apps(seed=0)` synthesizes), whatever the run's seed;
#: the seed drives the testbed's random streams: arrivals and jitter.
#: Different suites cost up to 20 % more or less CPU per fetch, which
#: would read as run-to-run spread, not as anything the program did.
APP_SUITE_SEED = 0
#: Virtual seconds of the set-up probe: long enough to build the
#: testbed, host every object and start every app driver, no more.
SETUP_VIRTUAL_S = 1.0
#: The edge path costs about 30 ms plus a 20-50 ms origin delay in
#: virtual time; a fetch slower than this queued somewhere.
SLO_MS = 150.0


def workload_config(seed: int, virtual_s: float) -> WorkloadConfig:
    return WorkloadConfig(
        n_apps=30, avg_frequency_per_min=3.0, zipf_exponent=0.8,
        duration_s=virtual_s, seed=seed,
        testbed=TestbedConfig(enable_telemetry=True))


def paper_workload(seed: int, virtual_s: float) -> Workload:
    workload = Workload(workload_config(seed, virtual_s))
    workload.apps = Workload(workload_config(APP_SUITE_SEED, virtual_s)).apps
    return workload


@dataclasses.dataclass
class Repetition:
    """What one repetition produced, and what it cost.

    Only numbers: the testbed, the system and the fetch records are
    dropped with the repetition, so a run's peak RSS does not grow
    with how many repetitions a fast host fits into it.
    """

    wall_s: float
    cpu_s: float
    virtual_s: float
    latencies_ms: list[float]
    hits: list[bool]
    failed: int
    first_problem: str | None
    #: `layers.ap_counters` at the end (the fresh testbed started
    #: every one at zero), plus the client-side lookup split.
    counters: dict[str, float]
    cache_bytes: int

    @property
    def fetches(self) -> int:
        return len(self.latencies_ms)

    def fingerprint(self) -> dict[str, object]:
        """Everything in virtual time; equal across repetitions."""
        digest = hashlib.sha256(
            repr(self.latencies_ms).encode("utf-8")).hexdigest()
        return {"fetches": self.fetches,
                "ap_hit_share": sum(self.hits) / self.fetches,
                "events_processed": self.counters["events"],
                "virtual_latencies_sha256": digest}


def run_repetition(seed: int, virtual_s: float = REPETITION_VIRTUAL_S,
                   ) -> Repetition:
    workload = paper_workload(seed, virtual_s)
    system = ApeCacheSystem()
    beds: list[Testbed] = []

    def keep_testbed(bed: Testbed, _system: object,
                     ) -> _t.Generator[object, object, None]:
        # `extra_processes` is the workload's public hook; it is the
        # one place the testbed it builds is handed out.
        beds.append(bed)
        return
        yield  # pragma: no cover - makes this a generator

    cpu_before = time.process_time()
    started = time.perf_counter()
    result = workload.run(system, extra_processes=[keep_testbed])
    wall_s = time.perf_counter() - started
    cpu_s = time.process_time() - cpu_before

    hosted = {(app.app_id, obj.name): (Url.parse(obj.url).base,
                                       obj.size_bytes)
              for app in workload.apps for obj in app.objects}
    problems = [problem for record in result.fetches
                if (problem := check_fetch(
                    record.result,
                    *hosted[(record.app_id, record.object_name)]))]
    bed = beds[0]
    counters = layers.ap_counters(system.ap_runtime, bed.ap, bed.telemetry,
                                  bed.sim)
    # Every fetch does one lookup (no device cache): a DNS-Cache query
    # the AP counted, or a hit in the client's flag table.
    counters["dns_queries"] = counters["ap_dns_cache_queries"]
    counters["flag_table_hits"] = \
        len(result.fetches) - counters["ap_dns_cache_queries"]
    return Repetition(
        wall_s=wall_s, cpu_s=cpu_s, virtual_s=virtual_s,
        latencies_ms=[record.result.total_latency_s * 1e3
                      for record in result.fetches],
        hits=[record.result.cache_hit for record in result.fetches],
        failed=len(problems),
        first_problem=problems[0] if problems else None,
        counters=counters,
        cache_bytes=system.ap_runtime.store.capacity_bytes)


def set_up_once(seed: int) -> float:
    """Seconds to build the app suite and a populated testbed."""
    started = time.perf_counter()
    paper_workload(seed, SETUP_VIRTUAL_S).run(ApeCacheSystem())
    return time.perf_counter() - started


def summarize(repetitions: _t.Sequence[Repetition]) -> dict[str, _t.Any]:
    """End-to-end numbers over same-seed repetitions."""
    first = repetitions[0]
    ordered = sorted(first.latencies_ms)
    rps = [rep.fetches / rep.wall_s for rep in repetitions]
    cpu_us = [rep.cpu_s * 1e6 / rep.fetches for rep in repetitions]
    attempted = sum(rep.fetches for rep in repetitions)
    failed = sum(rep.failed for rep in repetitions)
    met = sum(1 for latency in first.latencies_ms if latency <= SLO_MS)
    return {
        "attempted": attempted,
        "failed": failed,
        "first_problem": next((rep.first_problem for rep in repetitions
                               if rep.first_problem), None),
        "wall_s": sum(rep.wall_s for rep in repetitions),
        "cpu_s": sum(rep.cpu_s for rep in repetitions),
        "tail_samples_beyond":
            len(ordered) * (100.0 - TAIL_PERCENTILE) / 100.0,
        "all_samples": all_samples(ordered),
        "latency_mean_ms": sum(ordered) / len(ordered),
        "latency_p50_ms": percentile(ordered, 50.0),
        "latency_p90_ms": percentile(ordered, TAIL_PERCENTILE),
        "slo_met_share": met / len(ordered),
        "ok_share": (attempted - failed) / attempted,
        "ap_hit_share": sum(first.hits) / first.fetches,
        "throughput_rps": median(rps),
        "cpu_us_per_request": median(cpu_us),
        # Everything in virtual time repeats exactly (checked), so
        # only the wall-clock numbers have a spread.
        "spread": {"throughput_rps": iqr_share(rps),
                   "cpu_us_per_request": iqr_share(cpu_us)},
        "slices": len(repetitions),
        "slice_values": {"throughput_rps": rps, "cpu_us_per_request": cpu_us},
        "fingerprint": first.fingerprint(),
    }


def run_checks(repetitions: _t.Sequence[Repetition],
               summary: dict[str, _t.Any]) -> list[Check]:
    prints = [rep.fingerprint() for rep in repetitions]
    return [
        expect("every response is the hosted object",
               summary["failed"] == 0,
               f"{summary['failed']} of {summary['attempted']} failed; "
               f"first: {summary['first_problem']}"),
        expect("repetitions agree exactly in virtual time",
               all(other == prints[0] for other in prints[1:]),
               f"{len(prints)} repetitions: {prints[0]}"),
    ]


def run_traced_repetition(seed: int, virtual_s: float,
                          ) -> tuple[Repetition, trace.Tracer]:
    """One repetition with the timing wrappers installed."""
    tracer = trace.Tracer(virtual=True)
    tracer.install()
    try:
        repetition = run_repetition(seed, virtual_s)
    finally:
        tracer.remove()
    return repetition, tracer
