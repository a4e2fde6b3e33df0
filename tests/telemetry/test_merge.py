"""Registry shard merging: order-independence, refusals, sweep roll-up.

The contract under test (docs/telemetry.md, "shard merge contract"):
folding per-worker ``Telemetry`` shards is associative and
commutative, and the merged registry's JSONL export is byte-identical
regardless of merge order — which is what lets ``SweepEngine`` roll up
parallel workers and ``tools/check.sh`` compare --jobs 1 vs --jobs 2.
"""

import itertools
import json

import pytest

from repro.apps.workload import WorkloadConfig
from repro.errors import TelemetryError
from repro.runner import ScenarioSpec, SweepEngine
from repro.telemetry import NullTelemetry, Telemetry
from repro.telemetry.export import metric_records


def _shard(index: int) -> Telemetry:
    """One per-AP-style shard with all three instrument kinds."""
    telemetry = Telemetry()
    requests = telemetry.counter("fleet.requests", help="req")
    used = telemetry.gauge("fleet.cache_used_bytes", help="bytes")
    serve = telemetry.histogram("fleet.serve_ms", help="ms")
    for turn in range(20 + index):
        requests.inc(ap=f"ap{index}",
                     hit="yes" if turn % 3 else "no")
        serve.observe(0.5 + 7.3 * ((turn * (index + 1)) % 11),
                      ap=f"ap{index}")
    used.set(1000.0 * (index + 1), ap=f"ap{index}")
    return telemetry


def _export(telemetry: Telemetry) -> str:
    return json.dumps(metric_records(telemetry), sort_keys=True)


def test_every_merge_order_exports_identical_bytes():
    states = [_shard(index).state_dict() for index in range(3)]
    exports = {
        _export(Telemetry.from_states(order))
        for order in itertools.permutations(states)}
    assert len(exports) == 1
    # And the export is real data, not an agreement on emptiness.
    records = json.loads(next(iter(exports)))
    assert {record["name"] for record in records} >= \
        {"fleet.requests", "fleet.cache_used_bytes", "fleet.serve_ms"}


def test_live_merge_equals_the_state_dict_fold():
    via_states = Telemetry.from_states(
        [_shard(index).state_dict() for index in range(3)])
    live = _shard(0)
    live.merge(_shard(1)).merge(_shard(2))
    assert _export(live) == _export(via_states)


def test_merged_aggregates_are_the_shard_sums():
    shards = [_shard(index) for index in range(3)]
    merged = Telemetry.from_states(
        [shard.state_dict() for shard in shards])
    requests = merged.counter("fleet.requests")
    assert requests.total() == sum(
        shard.counter("fleet.requests").total() for shard in shards)
    assert requests.total(ap="ap1", hit="yes") == \
        shards[1].counter("fleet.requests").total(hit="yes")
    serve = merged.histogram("fleet.serve_ms")
    assert serve.count() == sum(
        shard.histogram("fleet.serve_ms").count() for shard in shards)
    # Gauges sum across shards: the fleet-wide bytes-cached reading.
    used = merged.gauge("fleet.cache_used_bytes")
    assert used.value(ap="ap2") == 3000.0


def test_merged_histogram_quantiles_equal_the_single_stream():
    def shard(values):
        telemetry = Telemetry()
        histogram = telemetry.histogram("lat", help="ms")
        for value in values:
            histogram.observe(value)
        return telemetry

    merged = shard([5.0, 1.0]).merge(shard([3.0, 9.0])).histogram("lat")
    single = shard([5.0, 1.0, 3.0, 9.0]).histogram("lat")
    assert merged.summary() == single.summary()
    assert merged.percentile(0.0) == 1.0
    assert merged.percentile(100.0) == 9.0


def test_error_bound_mismatch_refuses_to_merge():
    ours = Telemetry()
    ours.histogram("lat", help="ms").observe(1.0)
    theirs = ours.state_dict()
    theirs["instruments"]["lat"]["states"]["[]"]["relative_error"] = 0.02
    with pytest.raises(TelemetryError, match="error bounds"):
        ours.merge_state(theirs)


def test_kind_clash_refuses_to_merge():
    ours = Telemetry()
    ours.counter("fleet.requests", help="req").inc()
    theirs = Telemetry()
    theirs.gauge("fleet.requests", help="req").set(1.0)
    with pytest.raises(TelemetryError, match="cannot merge"):
        ours.merge(theirs)


def test_null_backend_refuses_to_absorb_shards():
    with pytest.raises(TelemetryError, match="null backend"):
        NullTelemetry().merge(_shard(0))
    # But a null shard folds into a real registry as "nothing".
    real = _shard(0)
    before = _export(real)
    real.merge(NullTelemetry())
    assert _export(real) == before


# ----------------------------------------------------------------------
# The sweep roll-up path
# ----------------------------------------------------------------------
def _sweep_spec(telemetry=True):
    return ScenarioSpec(
        name="merge-test", systems=("APE-CACHE",), seeds=(0, 1),
        workload=WorkloadConfig(n_apps=3, duration_s=20.0),
        telemetry=telemetry)


def test_sweep_roll_up_is_identical_across_worker_counts():
    serial = SweepEngine(jobs=1).run(_sweep_spec())
    parallel = SweepEngine(jobs=2).run(_sweep_spec())
    merged_serial = _export(serial.merged_telemetry())
    merged_parallel = _export(parallel.merged_telemetry())
    assert merged_serial == merged_parallel
    assert json.loads(merged_serial), "roll-up must carry real metrics"


def test_sweep_without_telemetry_cannot_roll_up():
    result = SweepEngine(jobs=1).run(_sweep_spec(telemetry=False))
    with pytest.raises(TelemetryError, match="no telemetry shards"):
        result.merged_telemetry()
