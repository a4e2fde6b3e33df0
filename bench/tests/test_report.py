"""A real (short) run of one workload, against `bench/schema.json`."""

import json
import os

import pytest

from bench import host, measure, trace
from bench.metrics import END_TO_END, PER_LAYER

jsonschema = pytest.importorskip("jsonschema")

HERE = os.path.dirname(os.path.abspath(__file__))


@pytest.fixture(scope="module")
def runs():
    found = {}
    for traced in (False, True):
        fingerprint = host.fingerprint()
        run = measure.run("live_hit_closed", seed=5, seconds=1.5,
                          traced=traced, smoke=True, imports_s=0.5)
        run["host"] = host.finish(fingerprint)
        found["traced" if traced else "untraced"] = run
    return found


def test_reports_validate_against_the_schema(runs):
    with open(os.path.join(HERE, "..", "schema.json"),
              encoding="utf-8") as handle:
        schema = json.load(handle)
    document = {"schema": 1, "seed": 5, "seconds": 1.5, "smoke": True,
                "host": runs["untraced"]["host"],
                "workloads": {"live_hit_closed": runs}}
    # What is written is what is validated.
    jsonschema.validate(json.loads(json.dumps(document)), schema)


def test_untraced_run_reports_every_end_to_end_metric(runs):
    run = runs["untraced"]
    assert run["correct"], run["checks"]
    assert list(run["metrics"]) == [metric.name for metric in END_TO_END]
    assert all(isinstance(entry["value"], float) and entry["value"] > 0
               for entry in run["metrics"].values())
    assert run["metrics"]["ap_hit_share"]["value"] == 1.0
    assert len(run["setups_s"]) == measure.SETUP_REPEATS


def test_traced_run_reports_every_per_layer_metric(runs):
    run = runs["traced"]
    assert run["correct"], run["checks"]
    assert list(run["metrics"]) == [metric.name for metric in PER_LAYER]
    value = {name: entry["value"] for name, entry in run["metrics"].items()}
    # The hit path with cached flags: one TCP exchange, no DNS, no admit.
    assert value["httplib.tcp_exchanges_per_req"] == 1.0
    assert value["dnslib.queries_per_req"] < 0.01
    assert value["cache.admits_per_req"] == 0.0
    assert value["cache.get_us"] > 0.0
    assert value["sim.events_per_req"] is None
    rows = {row["span"]: row["self_ms"] for row in run["self_time"]}
    assert sum(rows.values()) == pytest.approx(
        run["traced"]["latency_mean_ms"])
    assert rows["(residual)"] == pytest.approx(value["trace.residual_ms"])
    assert os.path.exists(run["traced"]["trace_file"])


def test_nothing_under_src_stays_patched(runs):
    trace.assert_unpatched()
