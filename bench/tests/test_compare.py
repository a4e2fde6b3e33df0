import copy

from bench.compare import compare
from bench.metrics import END_TO_END

HOST = {"nproc": 2, "python": "3.11.7", "cpu_model": "x",
        "loadavg_start": [0.1, 0.1, 0.1], "loadavg_end": [0.2, 0.1, 0.1],
        "calib_ms": 200.0}

VALUES = {"latency_p50_ms": 2.0, "latency_p90_ms": 4.0,
          "slo_met_share": 1.0, "throughput_rps": 900.0,
          "cpu_us_per_request": 800.0, "ok_share": 1.0,
          "ap_hit_share": 1.0, "peak_rss_mb": 100.0, "setup_s": 1.0}


def _set(**changed):
    values = dict(VALUES, **changed)
    run = {"correct": True, "attempted": 1000, "failed": 0, "slices": 16,
           "metrics": {metric.name: {
               "value": values[metric.name], "unit": metric.unit,
               # The slices of a healthy run agree on the shares.
               "spread": 0.0 if metric.unit == "ratio" else 0.04}
               for metric in END_TO_END}}
    return {"schema": 1, "seed": 1, "seconds": 24.0, "smoke": False,
            "host": dict(HOST),
            "workloads": {"live_hit_closed": {"untraced": run}}}


def _verdicts(lines):
    return {line.split()[1]: line.split("  ")[-1].strip()
            for line in lines if line.startswith("live_hit_closed")
            and line.split()[1] in VALUES}


def test_identical_sets_pass():
    lines, status = compare(_set(), _set())
    assert status == 0
    assert set(_verdicts(lines).values()) == {"ok"}


def test_a_change_within_the_bound_passes():
    _lines, status = compare(_set(), _set(latency_p50_ms=2.1,
                                          throughput_rps=860.0))
    assert status == 0


def test_worse_than_the_bound_is_a_regression():
    bound = {metric.name: metric.bound for metric in END_TO_END}
    slower = 900.0 * (1.0 - bound["throughput_rps"] - 0.01)
    lines, status = compare(_set(), _set(throughput_rps=slower))
    assert status == 1
    assert _verdicts(lines)["throughput_rps"] == "REGRESSION"
    assert _verdicts(lines)["latency_p50_ms"] == "ok"


def test_better_is_never_a_regression():
    _lines, status = compare(_set(), _set(throughput_rps=2000.0,
                                          latency_p90_ms=1.0))
    assert status == 0


def test_a_risen_failed_share_fails_whatever_the_metrics_say():
    after = _set()
    after["workloads"]["live_hit_closed"]["untraced"]["failed"] = 1
    lines, status = compare(_set(), after)
    assert status == 1 and any("failed share rose" in line for line in lines)


def test_noise_wider_than_the_bound_is_unresolved_not_ok():
    noisy = _set()
    entry = noisy["workloads"]["live_hit_closed"]["untraced"]["metrics"][
        "ok_share"]
    entry["spread"] = 0.05          # / sqrt(16) = 1.25 % > the 0.1 % bound
    lines, status = compare(_set(), noisy)
    assert status == 0
    assert _verdicts(lines)["ok_share"].startswith("unresolved")


def test_other_hosts_are_not_comparable():
    other = _set()
    other["host"]["nproc"] = 8
    lines, status = compare(_set(), other)
    assert status == 2 and "nproc differs" in lines[0]
    other = _set()
    other["host"]["python"] = "3.12.1"
    assert compare(_set(), other)[1] == 2
    patch = _set()
    patch["host"]["python"] = "3.11.9"
    assert compare(_set(), patch)[1] == 0


def test_a_smoke_set_is_not_comparable():
    smoke = _set()
    smoke["smoke"] = True
    assert compare(_set(), smoke)[1] == 2


def test_a_host_at_another_speed_draws_a_warning():
    other = copy.deepcopy(_set())
    other["host"]["calib_ms"] = 230.0
    lines, status = compare(_set(), other)
    assert status == 0 and lines[0].startswith("warning: host.calib_ms")
