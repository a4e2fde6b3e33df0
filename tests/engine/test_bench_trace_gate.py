"""The benchmark's traced run, where tier-1 can see it.

``bench/trace.py`` wraps names under ``src/repro`` *by name* (its
``_targets`` table) and checks that the spans it records add up to the
fetch latency.  Renaming one of those seams, changing the shape of what
``Node.occupy_cpu`` returns, or letting a kept-alive connection idle
inside a wrapped function (the inter-request gap is then charged to a
span) breaks the traced run only — which nothing else in tier-1
executes.  This runs it, briefly, on the two hit workloads: the closed
loop (one TCP exchange per fetch) and the open loop (plus one DNS-Cache
UDP exchange).  It also pins what a fetch asks of the event loop —
counts, not timings: no task and no coroutine bridge, and a handful of
loop callbacks.
"""

import json
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


#: Most loop callbacks a fetch may cost, per workload.
LOOP_CALLBACKS_PER_REQ = {"live_hit_closed": 5, "live_hit_open": 8}


@pytest.mark.parametrize("workload", ["live_hit_closed", "live_hit_open"])
def test_traced_bench_run_is_correct(workload, tmp_path):
    report = tmp_path / "report.json"
    finished = subprocess.run(
        [sys.executable, "-m", "bench.run", "--workload", workload,
         "--seed", "1", "--seconds", "2", "--trace", "1",
         "--out", str(report)],
        cwd=REPO_ROOT, text=True, timeout=60,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert finished.stdout.strip(), finished.stderr
    verdict = json.loads(finished.stdout.splitlines()[-1])
    failed_checks = [check for check in json.loads(report.read_text())
                     ["checks"] if not check["ok"]]
    assert verdict["correct"] is True and finished.returncode == 0, \
        f"failed checks: {failed_checks}\n{finished.stderr}"
    assert verdict["failed"] == 0
    assert finished.stderr == ""
    metrics = verdict["metrics"]
    assert metrics["engine.tasks_per_req"]["value"] == 0
    assert metrics["engine.bridges_per_req"]["value"] == 0
    assert metrics["engine.loop_callbacks_per_req"]["value"] \
        <= LOOP_CALLBACKS_PER_REQ[workload]
