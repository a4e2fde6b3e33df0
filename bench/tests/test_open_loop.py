import asyncio
import time

import pytest

from bench import layers, live


def test_open_loop_latency_is_counted_from_due_time():
    """A 50 ms stall of the generator's loop: the requests that came
    due meanwhile leave late, and their latency says so."""
    period = 0.005
    arrivals = tuple((slot * period, 0, slot) for slot in range(24))
    seen: dict[int, tuple[float, float, float]] = {}

    async def send(_device: int, index: int, due: float) -> None:
        sent = live.clock()
        if index == 5:
            time.sleep(0.05)
        await asyncio.sleep(0)
        seen[index] = (due, sent, live.clock())

    asyncio.run(live.open_loop(arrivals, send))
    assert sorted(seen) == list(range(24))
    latency_ms = {index: (done - due) * 1e3
                  for index, (due, _sent, done) in seen.items()}
    late_ms = {index: (sent - due) * 1e3
               for index, (due, sent, _done) in seen.items()}
    # Request 6 was due 5 ms into the stall, request 9 about 20 ms in.
    assert latency_ms[6] >= 40.0 and late_ms[6] >= 40.0
    assert latency_ms[9] >= 25.0
    # The stall was over well before the last request was due.
    assert late_ms[23] < 20.0
    sent = [seen[index][1] for index in sorted(seen)]
    due = [seen[index][0] for index in sorted(seen)]
    assert layers.late_p99_ms(sent, due) >= 40.0
    # Timed from when it was sent, the stall would have vanished.
    assert (seen[6][2] - seen[6][1]) * 1e3 < 20.0


def test_fetch_log_latency_uses_due_not_sent():
    log = live.FetchLog()
    log.add(due=1.000, sent=1.050, done=1.060, problem=None, hit=True)
    assert log.latencies_ms() == [pytest.approx(60.0)]


def _log(seconds: float, count: int, slow_from: int | None = None,
         ) -> live.FetchLog:
    """`count` fetches evenly over `seconds`, 2 ms each (20 ms from
    index `slow_from` on for 100 fetches)."""
    log = live.FetchLog()
    log.started = 100.0
    log.cpu_started = 10.0
    for index in range(count):
        done = 100.0 + seconds * (index + 1) / count
        slow = slow_from is not None and slow_from <= index < slow_from + 100
        log.add(due=done - (0.020 if slow else 0.002),
                sent=done - 0.002, done=done, problem=None, hit=True)
        log.cpu[-1] = 10.0 + 0.0005 * (index + 1)
        log.rss_kib[-1] = 50000 + index
    return log


def test_summary_is_the_median_slice():
    summary = live.summarize(_log(10.0, 5000), 10.0, slo_ms=30.0)
    assert summary["slices"] == 10
    assert summary["tail_samples_beyond"] == pytest.approx(50.0)
    assert summary["all_samples"]["tail_percentile"] == 99.0
    assert abs(summary["throughput_rps"] - 500.0) < 1e-6
    assert abs(summary["cpu_us_per_request"] - 500.0) < 1e-6
    assert abs(summary["latency_p50_ms"] - 2.0) < 1e-6
    assert summary["ok_share"] == 1.0 and summary["failed"] == 0


def test_one_disturbed_slice_leaves_the_median_alone():
    # 100 slow fetches among the 500 of the first of ten slices: its
    # p90 is 20 ms, the median slice's still 2 ms, and over all 5000
    # fetches the slow ones are the last two percent.
    summary = live.summarize(_log(10.0, 5000, slow_from=100), 10.0, 30.0)
    assert abs(summary["latency_p90_ms"] - 2.0) < 1e-6
    assert summary["slice_values"]["latency_p90_ms"][0] > 19.0
    assert summary["all_samples"]["latency_tail_ms"] > 19.0
