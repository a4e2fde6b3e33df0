"""`BENCHMARK.json` against the driver's contract and `bench.metrics`."""

import json
import os
import re

from bench import metrics, run

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _document():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def test_benchmark_json_is_what_the_metric_catalogue_says():
    assert _document() == metrics.as_benchmark_json(run.RUN_SECONDS)


def test_benchmark_json_keeps_within_the_contracts_limits():
    document = _document()
    assert set(document) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert document["paths"] == ["bench"]
    assert 1 <= document["run_seconds"] <= 60
    assert 2 <= len(document["workloads"]) <= 8
    assert 1 <= len(document["end_to_end"]) <= 16
    assert 1 <= len(document["per_layer"]) <= 128
    names = []
    for workload in document["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in document["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in document["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in document["end_to_end"] + document["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names), names
    assert len(names) == len(set(names))
    setup = [m for m in document["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"]
                                   for m in document["end_to_end"])}]
    # Every run, with its set-up, inside the driver's time budget.
    runs = 4 + 22 * len(document["workloads"])
    assert runs * (document["run_seconds"] + 8) <= 3420


def test_every_span_has_a_self_time_metric():
    from bench.trace import SPAN_NAMES

    listed = {metric.name for metric in metrics.PER_LAYER}
    assert {f"trace.self_ms.{name}" for name in SPAN_NAMES} <= listed
