"""The three live workloads: one process, one thread, one event loop.

The load generator and the stack under test share the loop (transport:
loopback, in-process), as `repro.cli parity` does.  The program is
driven through `LiveStack` / `WallClock` / `ClientRuntime` exactly as
shipped; every number here is taken from outside it.
"""

from __future__ import annotations

import asyncio
import bisect
import resource
import time
import typing as _t

from repro.core.annotations import CacheableSpec
from repro.core.client_runtime import ClientRuntime
from repro.engine.live import LiveStack
from repro.engine.wallclock import WallClock

from bench import trace
from bench.checks import Check, check_fetch, expect
from bench.inputs import DEVICES, SPEC_TTL_S, LiveInputs
from bench.stats import (
    TAIL_PERCENTILE,
    highest_supported_percentile,
    iqr_share,
    median,
    percentile,
)

clock = time.perf_counter

#: The measured phase is cut into slices this long and every
#: end-to-end number is the *median slice*.  Short, because the host's
#: slow spells last a few seconds and its stalls a few hundred
#: milliseconds: either lands in some slices and leaves the median
#: alone, where a percentile over all samples moved with them.
SLICE_S = 1.0


def max_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class FetchLog:
    """One phase's fetches, column by column, in completion order."""

    def __init__(self) -> None:
        self.started = clock()
        self.cpu_started = time.process_time()
        self.due: list[float] = []
        self.sent: list[float] = []
        self.done: list[float] = []
        self.problem: list[str | None] = []
        self.hit: list[bool] = []
        #: Process CPU seconds and peak RSS as of each completion, so
        #: the phase can be sliced any way afterwards.
        self.cpu: list[float] = []
        self.rss_kib: list[int] = []

    def __len__(self) -> int:
        return len(self.done)

    def add(self, due: float, sent: float, done: float,
            problem: str | None, hit: bool) -> None:
        self.due.append(due)
        self.sent.append(sent)
        self.done.append(done)
        self.problem.append(problem)
        self.hit.append(hit)
        self.cpu.append(time.process_time())
        self.rss_kib.append(max_rss_kib())

    def latencies_ms(self) -> list[float]:
        """From the instant each request was due, not when it left."""
        return [(done - due) * 1e3
                for due, done in zip(self.due, self.done)]


class LiveRig:
    """A started stack with its client devices, fed from `inputs`."""

    def __init__(self, inputs: LiveInputs) -> None:
        self.inputs = inputs
        self.engine: WallClock
        self.stack: LiveStack
        #: clients[device][app]: a device runs every app of the shape.
        self.clients: list[list[ClientRuntime]] = []
        #: Draws of each device's sequence already used.
        self.consumed = [0] * DEVICES
        self.warmup_log = FetchLog()
        self.in_flight = 0
        self.max_in_flight = 0
        self.ap_queue_max = 0
        #: Wall seconds spent in the generator's own code.
        self.gen_busy_s = 0.0
        self.tracer: trace.Tracer | None = None

    async def start(self) -> None:
        """Build and start the stack, then warm it up."""
        inputs = self.inputs
        self.engine = WallClock()
        self.stack = LiveStack(self.engine)
        for obj in inputs.objects:
            self.stack.host_object(obj.url, obj.size_bytes)
        await self.stack.start()
        for _device in range(DEVICES):
            per_app = [self.stack.add_client(f"app{app}")
                       for app in range(inputs.shape.apps)]
            for obj in inputs.objects + inputs.never_fetched:
                per_app[obj.app].register_spec(CacheableSpec(
                    url=obj.url, priority=obj.priority, ttl_s=SPEC_TTL_S))
            self.clients.append(per_app)
        await self._warm_up()

    async def _warm_up(self) -> None:
        log = self.warmup_log
        per_device = self.inputs.shape.warmup_per_device
        if per_device is not None:
            await asyncio.gather(*(
                self._run_device(device, log, limit=per_device)
                for device in range(DEVICES)))
            return
        # Hit workloads: make every object resident, forget what the
        # clients learned while the cache was filling, then let every
        # client see its steady-state flags once.
        everything = range(len(self.inputs.objects))
        for index in everything:
            await self.fetch(0, index, log)
        for per_app in self.clients:
            for client in per_app:
                client.flush()
        for device in range(DEVICES):
            for index in everything:
                await self.fetch(device, index, log)

    async def stop(self) -> None:
        await self.stack.stop()

    # ------------------------------------------------------------------
    # One fetch
    # ------------------------------------------------------------------
    async def fetch(self, device: int, index: int, log: FetchLog,
                    due: float | None = None) -> None:
        entered = clock()
        obj = self.inputs.objects[index]
        client = self.clients[device][obj.app]
        self.in_flight += 1
        if self.in_flight > self.max_in_flight:
            self.max_in_flight = self.in_flight
        queued = self.stack.ap.cpu.queue_length
        if queued > self.ap_queue_max:
            self.ap_queue_max = queued
        hit = False
        sent = clock()
        try:
            result = await self.stack.fetch(client, obj.url)
            done = clock()
            problem = check_fetch(result, obj.url, obj.size_bytes)
            if problem is None:
                hit = result.cache_hit
        except Exception as err:  # a failed fetch is counted, not fatal
            done = clock()
            problem = f"{type(err).__name__}: {err}"
        self.in_flight -= 1
        log.add(sent if due is None else due, sent, done, problem, hit)
        if self.tracer is not None:
            self.tracer.spans.append((trace.REQUEST, int(sent * 1e9),
                                      int(done * 1e9), None))
        self.gen_busy_s += (sent - entered) + (clock() - done)

    # ------------------------------------------------------------------
    # Load shapes
    # ------------------------------------------------------------------
    async def _run_device(self, device: int, log: FetchLog,
                          until: float | None = None,
                          limit: int | None = None) -> None:
        """One device, back to back, until a time or a fetch count."""
        issued = 0
        for index in self.inputs.sequence(device, self.consumed[device]):
            if (until is not None and clock() >= until) or issued == limit:
                break
            issued += 1
            self.consumed[device] += 1
            await self.fetch(device, index, log)

    async def closed_loop(self, seconds: float, log: FetchLog) -> None:
        """Every device back to back: `DEVICES` fetches in flight."""
        until = clock() + seconds
        await asyncio.gather(*(self._run_device(device, log, until=until)
                               for device in range(DEVICES)))

    async def one_in_flight(self, seconds: float, log: FetchLog) -> None:
        """The devices take turns: exactly one fetch in flight."""
        until = clock() + seconds
        streams = [self.inputs.sequence(device, self.consumed[device])
                   for device in range(DEVICES)]
        while clock() < until:
            for device, stream in enumerate(streams):
                self.consumed[device] += 1
                await self.fetch(device, next(stream), log)

    async def open_loop(self, log: FetchLog) -> None:
        await open_loop(
            self.inputs.arrivals,
            lambda device, index, due: self.fetch(device, index, log, due),
            self)


async def open_loop(arrivals: _t.Sequence[tuple[float, int, int]],
                    send: _t.Callable[[int, int, float],
                                      _t.Awaitable[None]],
                    busy: _t.Any = None) -> None:
    """Send every arrival when it is due, whatever is still in flight.

    A request's `due` instant is passed on so its latency counts the
    time it sat waiting for a stalled generator or loop; requests that
    are overdue leave at once, in a burst, as independent clients
    would have sent them.
    """
    start = clock()
    tasks = []
    for due, device, index in arrivals:
        delay = start + due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        began = clock()
        tasks.append(asyncio.ensure_future(send(device, index, start + due)))
        if busy is not None:
            busy.gen_busy_s += clock() - began
    await asyncio.gather(*tasks)


# ----------------------------------------------------------------------
# Turning a phase's log into numbers
# ----------------------------------------------------------------------
def _shares(latencies: _t.Sequence[float],
            problems: _t.Sequence[str | None], hits: _t.Sequence[bool],
            slo_ms: float) -> dict[str, float]:
    """Latency percentiles and outcome shares of one slice."""
    count = len(latencies)
    ordered = sorted(latencies)
    failed = sum(1 for problem in problems if problem is not None)
    met = sum(1 for latency, problem in zip(latencies, problems)
              if problem is None and latency <= slo_ms)
    return {
        "latency_p50_ms": percentile(ordered, 50.0),
        "latency_p90_ms": percentile(ordered, TAIL_PERCENTILE),
        "slo_met_share": met / count,
        "ok_share": (count - failed) / count,
        "ap_hit_share": sum(hits) / count,
    }


def all_samples(latencies_ms: _t.Sequence[float]) -> dict[str, float]:
    """For reference, never gated: the median and the highest
    percentile with ten samples beyond it over every fetch of a phase,
    host stalls included."""
    ordered = sorted(latencies_ms)
    tail_q = highest_supported_percentile(len(ordered), ceiling=99.0)
    return {"count": len(ordered),
            "latency_p50_ms": percentile(ordered, 50.0),
            "tail_percentile": tail_q,
            "latency_tail_ms": percentile(ordered, tail_q)}


def summarize(log: FetchLog, seconds: float, slo_ms: float,
              ) -> dict[str, _t.Any]:
    """End-to-end numbers of one measured phase (no set-up, no RSS).

    Each is the median over the phase's slices; `spread` says how far
    the slices disagree.
    """
    attempted = len(log)
    slices = max(1, round(seconds / SLICE_S))
    latencies = log.latencies_ms()
    per_slice: dict[str, list[float]] = {}
    slice_rss: list[int] = []
    smallest = attempted
    # Equal slices in time; the last one stretches to take the
    # fetches that were in flight when the phase ended.
    edges = [log.started + seconds * k / slices for k in range(1, slices)]
    edges.append(max(log.started + seconds, log.done[-1]))
    low, cpu_low, edge_low = 0, log.cpu_started, log.started
    for edge in edges:
        high = bisect.bisect_right(log.done, edge)
        correct = sum(1 for problem in log.problem[low:high]
                      if problem is None)
        if correct:
            values = _shares(latencies[low:high], log.problem[low:high],
                             log.hit[low:high], slo_ms)
            values["throughput_rps"] = correct / (edge - edge_low)
            values["cpu_us_per_request"] = \
                (log.cpu[high - 1] - cpu_low) * 1e6 / correct
            for name, value in values.items():
                per_slice.setdefault(name, []).append(value)
            slice_rss.append(log.rss_kib[high - 1])
            cpu_low = log.cpu[high - 1]
            smallest = min(smallest, high - low)
        low, edge_low = high, edge
    failed = sum(1 for problem in log.problem if problem is not None)
    summary: dict[str, _t.Any] = {
        name: median(values) for name, values in per_slice.items()}
    summary.update({
        "attempted": attempted,
        "failed": failed,
        "first_problem": next((problem for problem in log.problem
                               if problem is not None), None),
        "wall_s": log.done[-1] - log.started,
        "cpu_s": log.cpu[-1] - log.cpu_started,
        # Of the smallest slice; under 10 the tail is a few outliers.
        "tail_samples_beyond": smallest * (100.0 - TAIL_PERCENTILE) / 100.0,
        "all_samples": all_samples(latencies),
        "latency_mean_ms": sum(latencies) / attempted,
        "spread": {name: iqr_share(values)
                   for name, values in per_slice.items()},
        "slices": len(slice_rss),
        "slice_values": per_slice,
        "slice_rss_kib": slice_rss,
    })
    return summary


def run_checks(rig: LiveRig, summary: dict[str, _t.Any],
               edge_fetches: float, unwaited: str | None) -> list[Check]:
    """The run-level correctness checks of a live workload."""
    checks = [
        expect("every response is the hosted object",
               summary["failed"] == 0,
               f"{summary['failed']} of {summary['attempted']} failed; "
               f"first: {summary['first_problem']}"),
        expect("live.socket_errors = 0", _socket_errors(rig) == 0,
               _socket_errors(rig)),
        expect("engine.raise_unwaited() clean", unwaited is None,
               unwaited or ""),
    ]
    if rig.inputs.shape.warmup_per_device is None:
        checks.append(expect("hit workload never reaches the edge",
                             edge_fetches == 0, f"{edge_fetches:g} fetches"))
        checks.append(expect("hit workload: ap_hit_share = 1.0",
                             summary["ap_hit_share"] == 1.0,
                             summary["ap_hit_share"]))
    return checks


def _socket_errors(rig: LiveRig) -> float:
    counter = rig.stack.telemetry.get("live.socket_errors")
    return counter.total() if counter is not None else 0.0
