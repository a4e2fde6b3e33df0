"""Trace analytics: span trees, critical-path attribution, run diffing.

PR 2's :mod:`repro.telemetry` records *what happened* — spans and
instruments.  This module turns those recordings into *decisions*:

* **Span-tree building** — reconstruct the per-request trace tree from
  finished spans (live :class:`~repro.telemetry.registry.Telemetry`
  objects or exported JSONL), flagging orphaned spans and taxonomy
  violations against the documented ``request → dns_piggyback →
  {ap_hit | ap_delegated | edge_fetch} → ap.request → …`` shape.
* **Critical-path attribution** — an exact per-stage *self-time*
  decomposition of every request: each instant of the root span's
  window is attributed to the deepest span active at that instant, so
  the per-stage times of one request always sum to its end-to-end
  latency (the invariant ``tests/telemetry/test_analysis.py`` property-
  checks over seeds).  This is the checkable form of the paper's
  "millisecond-level, almost for free" claim: on the hit path the
  ``edge_fetch`` stage simply does not exist.
* **Run diffing** — compare two exported runs series-by-series and
  stage-by-stage.  Two same-seed runs diff *empty* (byte-empty render),
  which ``tools/check.sh`` enforces; across systems and seed fleets,
  :func:`compare_systems` reuses the sweep engine and the paired
  Student-t machinery from :mod:`repro.analysis.stats` to annotate
  every delta with a confidence interval.

Everything here is a pure function of deterministic inputs, so reports
are byte-identical across runs of the same seed.
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing as _t

from repro.errors import TelemetryError
from repro.experiments.common import ExperimentTable
from repro.telemetry.instruments import percentile

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.telemetry.registry import Telemetry

__all__ = [
    "SpanRecord", "TraceNode", "TraceTree", "TAXONOMY",
    "records_from_telemetry", "load_spans_jsonl", "load_metric_records",
    "build_trace_trees", "taxonomy_issues",
    "TraceAttribution", "AttributionReport", "attribute_tree",
    "attribute",
    "RunData", "load_run", "DiffEntry", "RunDiff", "diff_runs",
    "compare_systems",
]

#: Attribution/summary statistics exposed by reports.
STATS = ("count", "mean", "p50", "p95", "p99", "max")


# ----------------------------------------------------------------------
# Span records: one shape for live registries and exported JSONL
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class SpanRecord:
    """One finished span, as exported by :mod:`repro.telemetry.export`."""

    trace: int
    span: int
    parent: int | None
    name: str
    start_ms: float
    duration_ms: float
    status: str = "ok"
    attrs: _t.Mapping[str, object] = dataclasses.field(
        default_factory=dict)

    @property
    def end_ms(self) -> float:
        return self.start_ms + self.duration_ms


def _record_from_dict(raw: _t.Mapping[str, object]) -> SpanRecord:
    try:
        parent = raw.get("parent")
        return SpanRecord(
            trace=int(_t.cast(int, raw["trace"])),
            span=int(_t.cast(int, raw["span"])),
            parent=None if parent is None else int(_t.cast(int, parent)),
            name=str(raw["name"]),
            start_ms=float(_t.cast(float, raw["start_ms"])),
            duration_ms=float(_t.cast(float, raw["duration_ms"])),
            status=str(raw.get("status", "ok")),
            attrs=dict(_t.cast(dict, raw.get("attrs", {}))))
    except (KeyError, TypeError, ValueError) as error:
        raise TelemetryError(f"malformed span record {raw!r}: {error}")


def records_from_telemetry(telemetry: "Telemetry") -> list[SpanRecord]:
    """The registry's finished spans in canonical export order."""
    from repro.telemetry.export import span_records

    return [_record_from_dict(raw) for raw in span_records(telemetry)]


def load_spans_jsonl(path: str) -> list[SpanRecord]:
    """Read a ``--export-spans`` JSONL dump back into records."""
    records: list[SpanRecord] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(_record_from_dict(json.loads(line)))
    return records


def load_metric_records(path: str) -> list[dict[str, object]]:
    """Read a ``--export-metrics`` JSONL dump back into records."""
    records: list[dict[str, object]] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


# ----------------------------------------------------------------------
# Trace trees
# ----------------------------------------------------------------------
@dataclasses.dataclass
class TraceNode:
    """One span linked into its trace tree."""

    record: SpanRecord
    depth: int = 0
    children: list["TraceNode"] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class TraceTree:
    """One reconstructed trace: a root, its nodes, and any orphans.

    ``orphans`` are spans whose parent id does not appear in the trace —
    a parent that fell out of the span ring or was never closed.  They
    (and their subtrees) are excluded from ``nodes`` so attribution
    never double-counts a detached subtree.
    """

    trace_id: int
    root: TraceNode | None
    #: Every node reachable from the root, pre-order.
    nodes: list[TraceNode] = dataclasses.field(default_factory=list)
    orphans: list[SpanRecord] = dataclasses.field(default_factory=list)

    @property
    def complete(self) -> bool:
        return self.root is not None and not self.orphans


def build_trace_trees(records: _t.Sequence[SpanRecord],
                      ) -> list[TraceTree]:
    """Group spans by trace id and link each trace into a tree."""
    by_trace: dict[int, list[SpanRecord]] = {}
    for record in records:
        by_trace.setdefault(record.trace, []).append(record)
    trees: list[TraceTree] = []
    for trace_id in sorted(by_trace):
        spans = sorted(by_trace[trace_id],
                       key=lambda record: record.span)
        known = {record.span for record in spans}
        nodes = {record.span: TraceNode(record) for record in spans}
        root: TraceNode | None = None
        orphans: list[SpanRecord] = []
        for record in spans:
            if record.parent is None:
                if root is None:
                    root = nodes[record.span]
                else:  # second root in one trace: a linking bug
                    orphans.append(record)
            elif record.parent in known:
                nodes[record.parent].children.append(nodes[record.span])
            else:
                orphans.append(record)
        reachable: list[TraceNode] = []
        if root is not None:
            stack = [root]
            while stack:
                node = stack.pop()
                reachable.append(node)
                for child in sorted(
                        node.children,
                        key=lambda child: child.record.span,
                        reverse=True):
                    child.depth = node.depth + 1
                    stack.append(child)
        # Spans hanging under an orphan are unreachable too; report the
        # whole detached set, sorted for determinism.
        reached_ids = {node.record.span for node in reachable}
        orphan_ids = {record.span for record in orphans}
        for record in spans:
            if record.span not in reached_ids \
                    and record.span not in orphan_ids:
                orphans.append(record)
        trees.append(TraceTree(
            trace_id=trace_id, root=root, nodes=reachable,
            orphans=sorted(orphans, key=lambda record: record.span)))
    return trees


#: The documented span taxonomy: span name → allowed parent names
#: (``None`` = may be a trace root).  ``ap.*`` spans tolerate a missing
#: link (header stripped / prefetch) by allowing ``None``.
TAXONOMY: dict[str, tuple[str | None, ...]] = {
    "request": (None,),
    "dns_piggyback": ("request",),
    "dns_lookup": ("request",),
    "controller_lookup": ("request",),
    "ap_hit": ("request",),
    "ap_delegated": ("request",),
    "edge_fetch": ("request",),
    "ap.request": ("ap_hit", "ap_delegated", None),
    "ap.edge_fetch": ("ap.request", None),
    "ap.pacm_admit": ("ap.request", None),
}


def taxonomy_issues(trees: _t.Sequence[TraceTree],
                    taxonomy: _t.Mapping[str, tuple[str | None, ...]]
                    | None = None) -> list[str]:
    """Validate every tree against the span taxonomy.

    Returns human-readable issue strings (empty = clean): unknown span
    names, disallowed parent/child pairs, orphaned spans, and children
    whose interval escapes their parent's window.
    """
    rules = TAXONOMY if taxonomy is None else taxonomy
    issues: list[str] = []
    for tree in trees:
        prefix = f"trace {tree.trace_id}"
        if tree.root is None:
            issues.append(f"{prefix}: no root span (parent fell out of "
                          f"the span ring?)")
        for record in tree.orphans:
            issues.append(
                f"{prefix}: orphan span #{record.span} {record.name!r} "
                f"(parent #{record.parent} not in trace)")
        for node in tree.nodes:
            name = node.record.name
            allowed = rules.get(name)
            if allowed is None:
                issues.append(f"{prefix}: unknown span name {name!r} "
                              f"(span #{node.record.span})")
                continue
            if node.depth == 0:
                if None not in allowed:
                    issues.append(
                        f"{prefix}: {name!r} (span "
                        f"#{node.record.span}) must not be a root")
            for child in node.children:
                child_rules = rules.get(child.record.name)
                if child_rules is not None and name not in child_rules:
                    issues.append(
                        f"{prefix}: {child.record.name!r} (span "
                        f"#{child.record.span}) must not nest under "
                        f"{name!r}")
                if child.record.start_ms < node.record.start_ms - 1e-9 \
                        or child.record.end_ms > node.record.end_ms \
                        + 1e-9:
                    issues.append(
                        f"{prefix}: span #{child.record.span} "
                        f"{child.record.name!r} escapes its parent's "
                        f"window")
    return issues


# ----------------------------------------------------------------------
# Critical-path attribution
# ----------------------------------------------------------------------
@dataclasses.dataclass
class TraceAttribution:
    """Exact per-stage self-time decomposition of one request."""

    trace_id: int
    app: str
    source: str
    total_ms: float
    #: Stage (span name) → self time; values sum to ``total_ms``.
    self_ms: dict[str, float]
    #: How many requests this trace stands in for — 1.0 normally, the
    #: sampling rate for a 1-in-N keep under tail-based sampling
    #: (``sample.weight`` on the root span); aggregation weights every
    #: statistic by it so attribution still telescopes to fleet totals.
    weight: float = 1.0
    #: Why the sampler kept this trace (``tail``/``error``/``sampled``;
    #: empty when no sampler ran).
    sample_reason: str = ""


def attribute_tree(tree: TraceTree) -> TraceAttribution:
    """Decompose one trace into per-stage self-times.

    Sweep over the root's window: every elementary interval between
    span boundaries is attributed to the *deepest* active span (ties
    break on span id, i.e. the most recently started).  Each instant is
    counted exactly once, so the per-stage times sum to the root
    duration — even when sibling subtrees overlap in simulated time.
    """
    if tree.root is None:
        raise TelemetryError(
            f"trace {tree.trace_id} has no root span to attribute")
    root = tree.root.record
    lo, hi = root.start_ms, root.end_ms
    self_ms = {node.record.name: 0.0 for node in tree.nodes}
    cuts: set[float] = set()
    for node in tree.nodes:
        cuts.add(min(max(node.record.start_ms, lo), hi))
        cuts.add(min(max(node.record.end_ms, lo), hi))
    ordered = sorted(cuts)
    for left, right in zip(ordered, ordered[1:]):
        if right <= left:
            continue
        owner: TraceNode | None = None
        for node in tree.nodes:
            if node.record.start_ms <= left \
                    and node.record.end_ms >= right:
                if owner is None or (node.depth, node.record.span) > \
                        (owner.depth, owner.record.span):
                    owner = node
        if owner is not None:  # root always covers [lo, hi]
            self_ms[owner.record.name] += right - left
    return TraceAttribution(
        trace_id=tree.trace_id,
        app=str(root.attrs.get("app", "?")),
        source=str(root.attrs.get("source", "?")),
        total_ms=root.duration_ms,
        self_ms=self_ms,
        weight=float(_t.cast(float,
                             root.attrs.get("sample.weight", 1.0))),
        sample_reason=str(root.attrs.get("sample.reason", "")))


def _summary(samples: _t.Sequence[float],
             weights: _t.Sequence[float] | None = None,
             ) -> dict[str, float]:
    """Count/mean/percentiles, optionally weighted.

    Each weighted sample stands in for ``weight`` requests (tail-based
    sampling), so ``count`` is the total weight and mean/percentiles
    are weight-expanded.  All-unit weights dispatch to the exact
    unweighted arithmetic, keeping unsampled reports bit-identical.
    """
    if not samples:
        return {"count": 0.0}
    if weights is not None and all(w == 1.0 for w in weights):
        weights = None
    if weights is None:
        return {
            "count": float(len(samples)),
            "mean": math.fsum(samples) / len(samples),
            "p50": percentile(samples, 50.0),
            "p95": percentile(samples, 95.0),
            "p99": percentile(samples, 99.0),
            "max": max(samples),
        }
    total_weight = math.fsum(weights)
    return {
        "count": total_weight,
        "mean": math.fsum(value * weight for value, weight
                          in zip(samples, weights)) / total_weight,
        "p50": percentile(samples, 50.0, weights=weights),
        "p95": percentile(samples, 95.0, weights=weights),
        "p99": percentile(samples, 99.0, weights=weights),
        "max": max(samples),
    }


@dataclasses.dataclass
class AttributionReport:
    """Aggregated critical-path attribution across many requests."""

    #: One attribution per complete request trace.
    requests: list[TraceAttribution]
    #: Traces skipped (orphaned/incomplete or non-request roots).
    skipped: int = 0
    #: Taxonomy/orphan issues collected while building the trees.
    issues: list[str] = dataclasses.field(default_factory=list)

    def sources(self) -> list[str]:
        return sorted({attribution.source
                       for attribution in self.requests})

    def stage_samples(self, source: str = "*",
                      ) -> dict[str, list[float]]:
        """Stage → per-request self-time samples, filtered by source.

        The pseudo-stage ``total`` carries the per-request end-to-end
        latency.  ``source="*"`` merges every request path.  Under
        tail-based sampling, pair with :meth:`stage_weights` (aligned
        element-for-element) to weight the samples.
        """
        samples: dict[str, list[float]] = {}
        for attribution in self.requests:
            if source != "*" and attribution.source != source:
                continue
            samples.setdefault("total", []).append(attribution.total_ms)
            for stage in sorted(attribution.self_ms):
                samples.setdefault(stage, []).append(
                    attribution.self_ms[stage])
        return samples

    def stage_weights(self, source: str = "*",
                      ) -> dict[str, list[float]]:
        """Stage → per-request sampling weights, aligned with
        :meth:`stage_samples` (same filter, same iteration order)."""
        weights: dict[str, list[float]] = {}
        for attribution in self.requests:
            if source != "*" and attribution.source != source:
                continue
            weights.setdefault("total", []).append(attribution.weight)
            for stage in sorted(attribution.self_ms):
                weights.setdefault(stage, []).append(attribution.weight)
        return weights

    def summary(self) -> dict[str, dict[str, dict[str, float]]]:
        """``source → stage → {count, mean, p50, p95, p99, max}``.

        Weighted by each trace's sampling weight, so a 1-in-N sampled
        trace counts as N requests; unsampled runs (all weights 1) are
        bit-identical to the historical unweighted summary.
        """
        result: dict[str, dict[str, dict[str, float]]] = {}
        for source in ("*", *self.sources()):
            per_stage = self.stage_samples(source)
            per_weight = self.stage_weights(source)
            result[source] = {
                stage: _summary(per_stage[stage], per_weight[stage])
                for stage in sorted(per_stage)}
        return result

    def table(self, title: str = "critical-path latency attribution",
              ) -> ExperimentTable:
        """Per-(source, stage) self-time table, request-path order."""
        table = ExperimentTable(
            title=title,
            columns=["source", "stage", "count", "share", "mean_ms",
                     "p50_ms", "p95_ms", "p99_ms"])
        for source in self.sources():
            per_stage = self.stage_samples(source)
            per_weight = self.stage_weights(source)
            total = math.fsum(
                value * weight for value, weight
                in zip(per_stage.get("total", ()),
                       per_weight.get("total", ())))
            for stage in sorted(per_stage):
                if stage == "total":
                    continue
                stats = _summary(per_stage[stage], per_weight[stage])
                stage_sum = math.fsum(
                    value * weight for value, weight
                    in zip(per_stage[stage], per_weight[stage]))
                table.add_row(
                    source=source, stage=stage,
                    count=int(stats["count"]),
                    share=stage_sum / total if total else 0.0,
                    mean_ms=stats["mean"], p50_ms=stats["p50"],
                    p95_ms=stats["p95"], p99_ms=stats["p99"])
            stats = _summary(per_stage.get("total", ()),
                             per_weight.get("total", ()))
            if stats["count"]:
                table.add_row(source=source, stage="(end-to-end)",
                              count=int(stats["count"]), share=1.0,
                              mean_ms=stats["mean"], p50_ms=stats["p50"],
                              p95_ms=stats["p95"], p99_ms=stats["p99"])
        table.notes.append(
            f"{len(self.requests)} requests attributed, "
            f"{self.skipped} traces skipped, "
            f"{len(self.issues)} taxonomy issues")
        table.notes.append(
            "per-stage self-times: each instant belongs to the deepest "
            "active span, so stages sum exactly to end-to-end")
        weighted = math.fsum(attribution.weight
                             for attribution in self.requests)
        if weighted != float(len(self.requests)):
            table.notes.append(
                f"tail-sampled: {len(self.requests)} kept traces stand "
                f"in for {weighted:.0f} requests (stats weighted by "
                f"sample.weight)")
        return table


def attribute(records: _t.Sequence[SpanRecord],
              root_name: str = "request") -> AttributionReport:
    """Build the attribution report for every ``root_name`` trace."""
    trees = build_trace_trees(records)
    issues = taxonomy_issues(trees)
    requests: list[TraceAttribution] = []
    skipped = 0
    for tree in trees:
        if tree.root is None or tree.root.record.name != root_name:
            skipped += 1
            continue
        if tree.orphans:
            skipped += 1
            continue
        requests.append(attribute_tree(tree))
    return AttributionReport(requests=requests, skipped=skipped,
                             issues=issues)


# ----------------------------------------------------------------------
# Run diffing
# ----------------------------------------------------------------------
@dataclasses.dataclass
class RunData:
    """One exported run: metric records plus span records."""

    metrics: list[dict[str, object]] = dataclasses.field(
        default_factory=list)
    spans: list[SpanRecord] = dataclasses.field(default_factory=list)

    @staticmethod
    def from_telemetry(telemetry: "Telemetry") -> "RunData":
        from repro.telemetry.export import metric_records

        return RunData(metrics=metric_records(telemetry),
                       spans=records_from_telemetry(telemetry))


def load_run(path: str) -> RunData:
    """Load an exported run from a directory or a single JSONL file.

    A directory is expected to hold ``spans.jsonl`` and/or
    ``metrics.jsonl`` (the names ``repro.cli obs --export-spans/
    --export-metrics`` conventionally write).  A bare ``.jsonl`` file is
    sniffed: span records carry a ``span`` key, metric records a
    ``kind`` key.
    """
    import os

    run = RunData()
    if os.path.isdir(path):
        spans = os.path.join(path, "spans.jsonl")
        metrics = os.path.join(path, "metrics.jsonl")
        if os.path.exists(spans):
            run.spans = load_spans_jsonl(spans)
        if os.path.exists(metrics):
            run.metrics = load_metric_records(metrics)
        if not os.path.exists(spans) and not os.path.exists(metrics):
            raise TelemetryError(
                f"{path}: no spans.jsonl or metrics.jsonl inside")
        return run
    records = load_metric_records(path)
    if records and "span" in records[0]:
        run.spans = [_record_from_dict(raw) for raw in records]
    else:
        run.metrics = records
    return run


@dataclasses.dataclass(frozen=True)
class DiffEntry:
    """One diverging value between two runs."""

    #: ``metric`` | ``stage`` | ``series`` (added/removed series).
    kind: str
    key: str
    field: str
    a: float | None
    b: float | None

    @property
    def delta(self) -> float | None:
        if self.a is None or self.b is None:
            return None
        return self.b - self.a

    def render(self) -> str:
        if self.a is None:
            return f"{self.kind} {self.key} {self.field}: only in B " \
                   f"({self.b:g})"
        if self.b is None:
            return f"{self.kind} {self.key} {self.field}: only in A " \
                   f"({self.a:g})"
        return (f"{self.kind} {self.key} {self.field}: "
                f"{self.a:g} -> {self.b:g} ({self.b - self.a:+g})")


@dataclasses.dataclass
class RunDiff:
    """Every diverging value between two runs (empty = identical)."""

    entries: list[DiffEntry] = dataclasses.field(default_factory=list)

    @property
    def empty(self) -> bool:
        return not self.entries

    def render(self) -> str:
        """One line per divergence; the empty diff renders as ``""``."""
        return "\n".join(entry.render() for entry in self.entries)


def _metric_key(record: _t.Mapping[str, object]) -> str:
    labels = _t.cast(_t.Mapping[str, object], record.get("labels", {}))
    rendered = ",".join(f"{key}={labels[key]}"
                        for key in sorted(labels))
    key = f"{record.get('name')}{{{rendered}}}"
    # Histogram series state their percentile backend in the key, so
    # an exact-mode run never diffs "equal" against a sketch-mode run:
    # same numbers from different estimators are different series.
    summary = record.get("summary")
    if isinstance(summary, _t.Mapping):
        backend = summary.get("backend")
        if backend:
            key += f"#{backend}"
    return key


def _metric_values(record: _t.Mapping[str, object],
                   ) -> dict[str, float]:
    if record.get("kind") == "histogram":
        summary = _t.cast(_t.Mapping[str, object],
                          record.get("summary", {}))
        return {key: float(_t.cast(float, summary[key]))
                for key in sorted(summary)
                if isinstance(summary[key], (int, float))}
    value = record.get("value")
    if isinstance(value, (int, float)):
        return {"value": float(value)}
    return {}


def diff_runs(run_a: RunData, run_b: RunData,
              tolerance: float = 0.0) -> RunDiff:
    """Series-by-series and stage-by-stage delta of two runs.

    ``tolerance`` is the absolute difference below which two values are
    considered equal (0.0 = byte-exact, the same-seed gate).
    """
    entries: list[DiffEntry] = []
    metrics_a = {_metric_key(record): record for record in run_a.metrics}
    metrics_b = {_metric_key(record): record for record in run_b.metrics}
    for key in sorted(set(metrics_a) | set(metrics_b)):
        in_a, in_b = metrics_a.get(key), metrics_b.get(key)
        if in_a is None or in_b is None:
            present = in_a if in_a is not None else in_b
            count = _metric_values(_t.cast(dict, present))
            probe = next(iter(sorted(count.items())),
                         ("value", 0.0))
            entries.append(DiffEntry(
                kind="series", key=key, field=probe[0],
                a=None if in_a is None else probe[1],
                b=None if in_b is None else probe[1]))
            continue
        values_a, values_b = _metric_values(in_a), _metric_values(in_b)
        for field in sorted(set(values_a) | set(values_b)):
            left = values_a.get(field)
            right = values_b.get(field)
            if left is None or right is None \
                    or abs(left - right) > tolerance:
                entries.append(DiffEntry(kind="metric", key=key,
                                         field=field, a=left, b=right))
    if run_a.spans or run_b.spans:
        summary_a = attribute(run_a.spans).summary()
        summary_b = attribute(run_b.spans).summary()
        for source in sorted(set(summary_a) | set(summary_b)):
            stages_a = summary_a.get(source, {})
            stages_b = summary_b.get(source, {})
            for stage in sorted(set(stages_a) | set(stages_b)):
                stats_a = stages_a.get(stage, {})
                stats_b = stages_b.get(stage, {})
                for field in sorted(set(stats_a) | set(stats_b)):
                    left = stats_a.get(field)
                    right = stats_b.get(field)
                    if left is None or right is None \
                            or abs(left - right) > tolerance:
                        entries.append(DiffEntry(
                            kind="stage",
                            key=f"{source}/{stage}", field=field,
                            a=left, b=right))
    return RunDiff(entries=entries)


# ----------------------------------------------------------------------
# Cross-system comparison (significance-annotated)
# ----------------------------------------------------------------------
def compare_systems(system_a: str, system_b: str,
                    seeds: _t.Sequence[int] = (0, 1, 2),
                    n_apps: int | None = None,
                    duration_s: float | None = None,
                    jobs: int = 1,
                    confidence: float = 0.95) -> ExperimentTable:
    """Paired per-seed comparison of two systems on every metric.

    Runs an axis-free sweep (``system × seed``) through the engine,
    folds it with :func:`repro.runner.reduce.fold_multiseed`, and
    annotates each metric's delta with a paired Student-t interval —
    the significance machinery the replication experiment uses.
    """
    from repro.analysis.stats import paired_comparison
    from repro.apps.workload import WorkloadConfig
    from repro.runner import ScenarioSpec, SweepEngine
    from repro.runner.reduce import common_numeric_metrics, \
        fold_multiseed

    workload_kwargs: dict[str, _t.Any] = {}
    if n_apps is not None:
        workload_kwargs["n_apps"] = n_apps
    spec = ScenarioSpec(
        name=f"diff:{system_a}-vs-{system_b}",
        systems=(system_a, system_b), seeds=tuple(seeds),
        workload=WorkloadConfig(**workload_kwargs),
        duration_s=duration_s)
    result = SweepEngine(jobs=jobs).run(spec)
    folded = fold_multiseed(result)
    samples_a = folded[system_a].samples
    samples_b = folded[system_b].samples
    table = ExperimentTable(
        title=f"run diff: {system_a} vs {system_b} "
              f"({len(seeds)} paired seeds)",
        columns=["metric", system_a, system_b, "delta", "ci_low",
                 "ci_high", "verdict"])
    for metric in common_numeric_metrics(result.cells):
        if metric not in samples_a or metric not in samples_b:
            continue
        first, second = samples_a[metric], samples_b[metric]
        if len(first) != len(second) or not first:
            continue
        mean_a = math.fsum(first) / len(first)
        mean_b = math.fsum(second) / len(second)
        if len(first) < 2:
            table.add_row(metric=metric, **{
                system_a: mean_a, system_b: mean_b},
                delta=mean_b - mean_a, ci_low=mean_b - mean_a,
                ci_high=mean_b - mean_a, verdict="n<2")
            continue
        comparison = paired_comparison(second, first,
                                       confidence=confidence)
        table.add_row(metric=metric, **{
            system_a: mean_a, system_b: mean_b},
            delta=comparison.mean_difference,
            ci_low=comparison.ci_low, ci_high=comparison.ci_high,
            verdict=("significant" if comparison.significant
                     else "inconclusive"))
    table.notes.append(
        f"delta = {system_b} - {system_a}; paired per-seed "
        f"{confidence:.0%} Student-t interval "
        f"(repro.analysis.stats.paired_comparison)")
    return table
