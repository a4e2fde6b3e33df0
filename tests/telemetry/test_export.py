"""Export determinism and the end-to-end trace taxonomy.

The acceptance bar for the observability layer: two runs of the same
seeded scenario must produce **byte-identical** JSONL span and metric
dumps (hash-compared here), and an instrumented run must not perturb
the simulated timings of an un-instrumented one (the trace header is
zero-cost on the wire).
"""

import hashlib
import json

from repro.baselines import ApeCacheSystem
from repro.core.annotations import CacheableSpec
from repro.sim import HOUR
from repro.telemetry import (
    metric_records,
    metrics_to_jsonl,
    spans_to_jsonl,
    write_metrics_jsonl,
    write_spans_jsonl,
)
from repro.testbed import Testbed, TestbedConfig

KB = 1024
URLS = ("http://obsapp.example/a", "http://obsapp.example/b")


def run_scenario(seed: int = 3, telemetry: bool = True):
    """A small APE-CACHE run: two objects, fetched twice each."""
    bed = Testbed(TestbedConfig(seed=seed, enable_telemetry=telemetry))
    system = ApeCacheSystem()
    system.install(bed)
    node = bed.add_client("phone")
    fetcher = system.new_fetcher(bed, node, "obsapp")
    for url in URLS:
        bed.host_object(url, 10 * KB)
        fetcher.register_spec(CacheableSpec(url, 2, 1 * HOUR))
    results = []

    def proc():
        for url in URLS + URLS:
            result = yield from fetcher.fetch(url)
            results.append(result)

    bed.sim.run(until=bed.sim.process(proc()))
    return bed, results


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
def test_same_seed_runs_export_byte_identical_jsonl(tmp_path):
    first, _ = run_scenario(seed=3)
    second, _ = run_scenario(seed=3)

    assert spans_to_jsonl(first.telemetry) == \
        spans_to_jsonl(second.telemetry)
    assert metrics_to_jsonl(first.telemetry) == \
        metrics_to_jsonl(second.telemetry)

    path_a, path_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    count_a = write_spans_jsonl(first.telemetry, str(path_a))
    count_b = write_spans_jsonl(second.telemetry, str(path_b))
    assert count_a == count_b > 0
    hash_a = hashlib.sha256(path_a.read_bytes()).hexdigest()
    hash_b = hashlib.sha256(path_b.read_bytes()).hexdigest()
    assert hash_a == hash_b


def test_different_seed_changes_the_span_dump():
    first, _ = run_scenario(seed=3)
    second, _ = run_scenario(seed=4)
    assert spans_to_jsonl(first.telemetry) != \
        spans_to_jsonl(second.telemetry)


def test_telemetry_is_a_pure_observer_of_simulated_time():
    """Enabling telemetry must not shift any simulated latency."""
    _, bare = run_scenario(seed=3, telemetry=False)
    _, instrumented = run_scenario(seed=3, telemetry=True)
    assert [r.total_latency_s for r in bare] == \
        [r.total_latency_s for r in instrumented]
    assert [r.lookup_latency_s for r in bare] == \
        [r.lookup_latency_s for r in instrumented]
    assert [r.source for r in bare] == [r.source for r in instrumented]


# ----------------------------------------------------------------------
# Trace taxonomy
# ----------------------------------------------------------------------
def test_first_fetch_produces_the_paper_trace_tree():
    bed, results = run_scenario(seed=3)
    spans = bed.telemetry.spans
    names = {span.name for span in spans}
    assert {"request", "dns_piggyback", "ap.request"} <= names
    assert names & {"ap_hit", "ap_delegated", "edge_fetch"}
    assert {"ap.edge_fetch", "ap.pacm_admit"} <= names

    # The cold fetch's trace stitches client and AP sides together via
    # the x-ape-trace header: one trace id, parents pointing upward.
    request = spans.finished("request")[0]
    trace = spans.traces()[request.trace_id]
    by_name = {span.name: span for span in trace}
    assert by_name["dns_piggyback"].parent_id == request.span_id
    stage = next(span for span in trace
                 if span.name in ("ap_hit", "ap_delegated", "edge_fetch"))
    assert stage.parent_id == request.span_id
    assert by_name["ap.request"].parent_id == stage.span_id
    assert by_name["ap.edge_fetch"].parent_id == \
        by_name["ap.request"].span_id
    assert by_name["ap.pacm_admit"].parent_id == \
        by_name["ap.request"].span_id
    # Warm fetches hit the AP: at least one request span says so.
    sources = [span.attrs.get("source")
               for span in spans.finished("request")]
    assert "ap-hit" in sources


def test_span_records_are_sorted_and_json_parseable():
    bed, _ = run_scenario(seed=3)
    dump = spans_to_jsonl(bed.telemetry)
    keys = []
    for line in dump.splitlines():
        record = json.loads(line)
        keys.append((record["trace"], record["span"]))
        assert record["duration_ms"] >= 0.0
    assert keys == sorted(keys)


def test_metric_records_cover_the_stack(tmp_path):
    bed, _ = run_scenario(seed=3)
    names = {record["name"] for record in metric_records(bed.telemetry)}
    # pacm.selections/victims only export once eviction has run, which
    # this small scenario never forces — the obs tests cover those.
    for expected in ("cache.lookups", "cache.used_bytes",
                     "client.fetches", "client.total_ms", "dns.queries",
                     "ap.edge_fetch_ms", "ap.http_requests",
                     "net.link_bytes"):
        assert expected in names, expected
    path = tmp_path / "metrics.jsonl"
    assert write_metrics_jsonl(bed.telemetry, str(path)) == \
        len(metric_records(bed.telemetry))
    assert path.read_text() == metrics_to_jsonl(bed.telemetry) + "\n"
