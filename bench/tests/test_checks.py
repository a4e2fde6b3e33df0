import types

from bench import live, run
from bench.checks import check_fetch
from bench.inputs import build_live_inputs

URL = "http://app0.bench.example/obj-0"


def _result(url=URL, size=2048):
    return types.SimpleNamespace(
        data_object=types.SimpleNamespace(url=url, size_bytes=size),
        cache_hit=True)


def test_the_hosted_object_passes():
    assert check_fetch(_result(), URL, 2048) is None


def test_a_wrong_size_body_fails():
    assert "size" in check_fetch(_result(size=2047), URL, 2048)


def test_a_missing_object_fails():
    missing = types.SimpleNamespace(data_object=None, cache_hit=False)
    assert check_fetch(missing, URL, 2048) == "no object returned"
    assert check_fetch(None, URL, 2048) == "no object returned"


def test_another_objects_url_fails():
    assert "url" in check_fetch(_result(url=URL + "x"), URL, 2048)


def _summary(failed, hit_share=1.0):
    return {"failed": failed, "attempted": 100,
            "first_problem": "object size 1 != 2" if failed else None,
            "ap_hit_share": hit_share}


class _Rig:
    """Just enough of a LiveRig for the run-level checks."""

    def __init__(self, workload):
        self.inputs = build_live_inputs(workload, 1, 1.0)
        self.stack = types.SimpleNamespace(
            telemetry=types.SimpleNamespace(get=lambda _name: None))


def test_run_checks_flag_a_failed_fetch_and_an_edge_fetch():
    rig = _Rig("live_hit_closed")
    clean = live.run_checks(rig, _summary(0), edge_fetches=0, unwaited=None)
    assert all(check.ok for check in clean)
    failed = {check.name: check.ok for check in live.run_checks(
        rig, _summary(1, hit_share=0.99), edge_fetches=2,
        unwaited="TransportError: boom")}
    assert not failed["every response is the hosted object"]
    assert not failed["hit workload never reaches the edge"]
    assert not failed["hit workload: ap_hit_share = 1.0"]
    assert not failed["engine.raise_unwaited() clean"]


def test_the_churn_workload_may_reach_the_edge():
    names = [check.name for check in live.run_checks(
        _Rig("live_churn_closed"), _summary(0, 0.2), 50, None)]
    assert "hit workload never reaches the edge" not in names


def test_a_failed_check_makes_the_command_exit_nonzero(monkeypatch, capsys):
    from bench import host, measure

    def fake_run(workload, seed, seconds, traced, smoke, imports_s):
        return {"workload": workload, "seed": seed, "seconds": seconds,
                "trace": 0, "smoke": False, "transport": "loopback, "
                "in-process", "correct": False, "attempted": 10,
                "failed": 1, "noisy": False, "slices": 3,
                "tail_samples_beyond": 1.0,
                "all_samples": {"count": 10, "latency_p50_ms": 2.0,
                                "tail_percentile": 50.0,
                                "latency_tail_ms": 2.0},
                "checks": [{"name": "every response is the hosted object",
                            "ok": False, "detail": "1 of 10 failed"}],
                "metrics": {"ok_share": {"value": 0.9, "unit": "ratio"}}}

    monkeypatch.setattr(measure, "run", fake_run)
    monkeypatch.setattr(host, "calibrate", lambda: 200.0)
    status = run.main(["--workload", "live_hit_closed", "--seed", "1",
                       "--seconds", "1", "--trace", "0"])
    assert status == 1
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert '"correct": false' in last and '"failed": 1' in last
