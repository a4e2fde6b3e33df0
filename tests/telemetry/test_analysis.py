"""Trace-tree building, critical-path attribution, and run diffing."""

import math

import pytest

from repro.errors import TelemetryError
from repro.telemetry.analysis import (
    DiffEntry,
    RunData,
    SpanRecord,
    attribute,
    attribute_tree,
    build_trace_trees,
    diff_runs,
    load_run,
    records_from_telemetry,
    taxonomy_issues,
)
from repro.telemetry.export import write_metrics_jsonl, write_spans_jsonl
from repro.telemetry.obs import instrumented_run


def span(trace, span_id, parent, name, start, duration, **attrs):
    return SpanRecord(trace=trace, span=span_id, parent=parent,
                      name=name, start_ms=start, duration_ms=duration,
                      attrs=attrs)


# ----------------------------------------------------------------------
# Tree building
# ----------------------------------------------------------------------
def test_build_trace_trees_links_children_preorder():
    records = [
        span(1, 1, None, "request", 0.0, 100.0),
        span(1, 2, 1, "dns_piggyback", 0.0, 10.0),
        span(1, 3, 1, "ap_hit", 10.0, 30.0),
    ]
    (tree,) = build_trace_trees(records)
    assert tree.complete
    assert [node.record.name for node in tree.nodes] == \
        ["request", "dns_piggyback", "ap_hit"]
    assert [node.depth for node in tree.nodes] == [0, 1, 1]


def test_orphans_and_their_subtrees_are_detached():
    records = [
        span(7, 1, None, "request", 0.0, 50.0),
        span(7, 2, 99, "ap_hit", 5.0, 10.0),       # parent missing
        span(7, 3, 2, "ap.request", 6.0, 8.0),     # under the orphan
    ]
    (tree,) = build_trace_trees(records)
    assert not tree.complete
    assert [node.record.name for node in tree.nodes] == ["request"]
    assert sorted(record.span for record in tree.orphans) == [2, 3]


def test_second_root_in_one_trace_is_an_orphan():
    records = [
        span(3, 1, None, "request", 0.0, 10.0),
        span(3, 2, None, "request", 20.0, 10.0),
    ]
    (tree,) = build_trace_trees(records)
    assert tree.root is not None and tree.root.record.span == 1
    assert [record.span for record in tree.orphans] == [2]


# ----------------------------------------------------------------------
# Taxonomy validation
# ----------------------------------------------------------------------
def test_taxonomy_flags_unknown_names_and_bad_nesting():
    records = [
        span(1, 1, None, "request", 0.0, 100.0),
        span(1, 2, 1, "mystery_stage", 0.0, 5.0),     # unknown name
        span(1, 3, 1, "ap.edge_fetch", 5.0, 5.0),     # bad parent
        span(1, 4, 1, "dns_piggyback", 90.0, 20.0),   # escapes window
    ]
    issues = taxonomy_issues(build_trace_trees(records))
    assert any("unknown span name 'mystery_stage'" in issue
               for issue in issues)
    assert any("'ap.edge_fetch'" in issue and "must not nest" in issue
               for issue in issues)
    assert any("escapes its parent's window" in issue
               for issue in issues)


def test_taxonomy_flags_rootless_traces_and_non_root_spans():
    records = [
        span(1, 2, 99, "ap_hit", 0.0, 5.0),   # trace with no root
        span(2, 1, None, "dns_piggyback", 0.0, 5.0),  # must not root
    ]
    issues = taxonomy_issues(build_trace_trees(records))
    assert any("no root span" in issue for issue in issues)
    assert any("must not be a root" in issue for issue in issues)


def test_clean_request_trace_has_no_issues():
    records = [
        span(1, 1, None, "request", 0.0, 30.0),
        span(1, 2, 1, "dns_piggyback", 0.0, 10.0),
        span(1, 3, 1, "ap_hit", 10.0, 15.0),
    ]
    assert taxonomy_issues(build_trace_trees(records)) == []


# ----------------------------------------------------------------------
# Attribution
# ----------------------------------------------------------------------
def test_attribute_tree_assigns_self_time_to_deepest_span():
    records = [
        span(1, 1, None, "request", 0.0, 100.0, source="ap-hit"),
        span(1, 2, 1, "dns_piggyback", 0.0, 20.0),
        span(1, 3, 1, "ap_hit", 20.0, 50.0),
    ]
    (tree,) = build_trace_trees(records)
    attribution = attribute_tree(tree)
    assert attribution.source == "ap-hit"
    assert attribution.self_ms == {
        "request": 30.0, "dns_piggyback": 20.0, "ap_hit": 50.0}
    assert math.isclose(sum(attribution.self_ms.values()),
                        attribution.total_ms)


def test_attribute_tree_overlapping_siblings_count_each_instant_once():
    # dns [0,30) overlaps ap_hit [20,60); the overlap belongs to the
    # later-started sibling, and the stage times still telescope.
    records = [
        span(1, 1, None, "request", 0.0, 100.0),
        span(1, 2, 1, "dns_piggyback", 0.0, 30.0),
        span(1, 3, 1, "ap_hit", 20.0, 40.0),
    ]
    (tree,) = build_trace_trees(records)
    attribution = attribute_tree(tree)
    assert attribution.self_ms == {
        "request": 40.0, "dns_piggyback": 20.0, "ap_hit": 40.0}
    assert math.isclose(sum(attribution.self_ms.values()), 100.0)


def test_attribute_tree_requires_a_root():
    (tree,) = build_trace_trees([span(5, 2, 99, "ap_hit", 0.0, 1.0)])
    with pytest.raises(TelemetryError):
        attribute_tree(tree)


def test_attribute_skips_orphaned_and_non_request_traces():
    records = [
        span(1, 1, None, "request", 0.0, 10.0),
        span(2, 1, None, "request", 0.0, 10.0),
        span(2, 2, 99, "ap_hit", 0.0, 5.0),        # orphaned trace
        span(3, 1, None, "ap.request", 0.0, 5.0),  # non-request root
    ]
    report = attribute(records)
    assert len(report.requests) == 1
    assert report.skipped == 2
    assert report.issues  # the orphan is still reported


def test_report_table_and_json_shapes():
    records = [
        span(1, 1, None, "request", 0.0, 100.0, source="ap-hit"),
        span(1, 2, 1, "ap_hit", 0.0, 60.0),
    ]
    report = attribute(records)
    table = report.table()
    assert table.columns[:2] == ["source", "stage"]
    assert "(end-to-end)" in table.column("stage")
    shares = {row["stage"]: row["share"] for row in table.rows}
    assert math.isclose(shares["ap_hit"], 0.6)


# ----------------------------------------------------------------------
# The invariant on real runs: stages sum to end-to-end, and the hit
# path never contains a client edge fetch
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_real_run_attribution_telescopes_exactly(seed):
    run = instrumented_run(quick=True, seed=seed)
    report = attribute(records_from_telemetry(run.telemetry))
    assert report.requests, "no request traces recorded"
    assert report.issues == []
    assert report.skipped == 0
    for attribution in report.requests:
        assert math.isclose(sum(attribution.self_ms.values()),
                            attribution.total_ms,
                            rel_tol=1e-9, abs_tol=1e-6)
    # The paper's claim, checkable: AP hits never touch the edge.
    assert "edge_fetch" not in report.stage_samples("ap-hit")
    assert "ap-hit" in report.sources()


# ----------------------------------------------------------------------
# The paper's bounds on the seed-0 quick run: an AP hit is served in
# milliseconds (Fig. 11) and the miss path stays bounded.  Limits carry
# ~30 % headroom over the seed-0 quick run; everything read is virtual
# time, so the verdict is the same on any host.  The telescoping test
# above holds the other two bounds: no taxonomy issues, and no
# edge_fetch stage on the hit path.
# ----------------------------------------------------------------------
AP_HIT_P95_MS = 12.0             # ap-hit/ap_hit stage, observed ~8.7
AP_HIT_TOTAL_P95_MS = 30.0       # ap-hit end to end, observed ~22.8
DNS_PIGGYBACK_P95_MS = 25.0      # every source, observed ~18.4
DELEGATED_TOTAL_P99_MS = 140.0   # ap-delegated end to end, observed ~111
MIN_CLIENT_FETCHES = 800         # the run exercises the cache: 1168


@pytest.fixture(scope="module")
def exported_run(tmp_path_factory):
    run = instrumented_run(quick=True, seed=0)
    directory = tmp_path_factory.mktemp("run")
    write_spans_jsonl(run.telemetry, str(directory / "spans.jsonl"))
    write_metrics_jsonl(run.telemetry, str(directory / "metrics.jsonl"))
    return run.telemetry, directory


def test_quick_run_holds_the_papers_latency_bounds(exported_run):
    telemetry, _directory = exported_run
    summary = attribute(records_from_telemetry(telemetry)).summary()
    assert summary["ap-hit"]["ap_hit"]["p95"] <= AP_HIT_P95_MS
    assert summary["ap-hit"]["total"]["p95"] <= AP_HIT_TOTAL_P95_MS
    assert summary["*"]["dns_piggyback"]["p95"] <= DNS_PIGGYBACK_P95_MS
    assert summary["ap-delegated"]["total"]["p99"] <= \
        DELEGATED_TOTAL_P99_MS
    assert telemetry.get("client.fetches").total() >= MIN_CLIENT_FETCHES


def test_ap_hit_edge_fetch_count_is_zero(exported_run):
    telemetry, _directory = exported_run
    summary = attribute(records_from_telemetry(telemetry)).summary()
    # A stage no hit ever entered has no count at all, i.e. zero.
    assert summary["ap-hit"].get("edge_fetch", {"count": 0.0})["count"] \
        == 0.0
    # Not vacuous: the delegated path does reach the edge, via the AP.
    assert summary["ap-delegated"]["ap.edge_fetch"]["count"] > 0.0


def test_exported_quick_run_passes_the_attribution_gate(exported_run):
    telemetry, directory = exported_run
    written = attribute(load_run(str(directory)).spans)
    assert written.issues == [] and written.skipped == 0
    assert "ap-hit" in written.sources()
    # The export is virtual time only: re-attributing the written run
    # gives the in-memory verdict exactly.
    assert written.summary() == \
        attribute(records_from_telemetry(telemetry)).summary()


# ----------------------------------------------------------------------
# Run loading and diffing
# ----------------------------------------------------------------------
def test_load_run_round_trips_the_export(exported_run):
    telemetry, directory = exported_run
    loaded = load_run(str(directory))
    live = RunData.from_telemetry(telemetry)
    assert loaded.spans == live.spans
    assert loaded.metrics == live.metrics


def test_load_run_sniffs_a_bare_spans_file(exported_run):
    _telemetry, directory = exported_run
    run = load_run(str(directory / "spans.jsonl"))
    assert run.spans and not run.metrics


def test_load_run_rejects_an_empty_directory(tmp_path):
    with pytest.raises(TelemetryError):
        load_run(str(tmp_path))


def test_same_run_diffs_empty(exported_run):
    telemetry, directory = exported_run
    diff = diff_runs(load_run(str(directory)),
                     RunData.from_telemetry(telemetry))
    assert diff.empty
    assert diff.render() == ""


def test_diff_reports_diverging_series_and_values(exported_run):
    telemetry, directory = exported_run
    run_a = load_run(str(directory))
    run_b = load_run(str(directory))
    index, record = next(
        (index, record) for index, record in enumerate(run_b.metrics)
        if "value" in record)
    mutated = dict(record)
    mutated["value"] = float(mutated["value"]) + 1.0
    run_b.metrics[index] = mutated
    run_b.metrics.append({"kind": "counter", "name": "extra.counter",
                          "labels": {}, "value": 1.0})
    diff = diff_runs(run_a, run_b)
    assert not diff.empty
    rendered = diff.render()
    assert "extra.counter" in rendered
    assert "->" in rendered


def test_diff_tolerance_hides_deltas_within_it():
    def run(duration_ms, value):
        return RunData(
            metrics=[{"kind": "counter", "name": "c", "labels": {},
                      "value": value}],
            spans=[span(1, 1, None, "request", 0.0, duration_ms,
                        source="ap-hit"),
                   span(1, 2, 1, "ap_hit", 0.0, 4.0)])

    exact = diff_runs(run(10.0, 5.0), run(10.5, 5.25))
    keys = {(entry.kind, entry.key, entry.field)
            for entry in exact.entries}
    assert ("metric", "c{}", "value") in keys
    assert ("stage", "ap-hit/total", "mean") in keys
    # The ap_hit stage did not move, so it has no entry either way.
    assert not any(entry.key.endswith("/ap_hit")
                   for entry in exact.entries)
    assert diff_runs(run(10.0, 5.0), run(10.5, 5.25),
                     tolerance=0.5).empty
    loose = diff_runs(run(10.0, 5.0), run(10.5, 5.25), tolerance=0.3)
    assert {(entry.kind, entry.field) for entry in loose.entries} == {
        ("stage", field) for field in ("mean", "p50", "p95", "p99",
                                       "max")}


def test_diff_entry_renders_one_sided_values():
    only_b = DiffEntry(kind="metric", key="m", field="value",
                       a=None, b=2.0)
    only_a = DiffEntry(kind="metric", key="m", field="value",
                       a=3.0, b=None)
    assert only_b.delta is None and "only in B" in only_b.render()
    assert "only in A" in only_a.render()
