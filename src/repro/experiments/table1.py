"""Experiment Table I: Akamai caching performance from three sites.

The measurement study runs as one system-less scenario cell whose
metrics carry every (site, service) triple; the table folds them back
into the paper's rows.
"""

from __future__ import annotations

import typing as _t

from repro.experiments.common import ExperimentTable
from repro.measurement.akamai import PAPER_TABLE1, AkamaiStudy
from repro.runner import ScenarioSpec, SweepEngine
from repro.runner.spec import Cell

__all__ = ["run", "akamai_cell"]


def akamai_cell(cell: Cell) -> dict[str, object]:
    """Cell runner: one full Akamai measurement campaign."""
    runs = int(_t.cast(int, cell.params.get("runs", 25)))
    study = AkamaiStudy(seed=cell.seed)
    metrics: dict[str, object] = {}
    for result in study.measure(runs=runs):
        prefix = f"{result.site}/{result.service}"
        metrics[f"{prefix}/dns_ms"] = result.dns_ms
        metrics[f"{prefix}/rtt_ms"] = result.rtt_ms
        metrics[f"{prefix}/hops"] = result.hops
    return metrics


def run(quick: bool = True, seed: int = 0, jobs: int = 1,
        ) -> ExperimentTable:
    """Reproduce Table I: DNS / RTT / hops per (site, service) cell."""
    spec = ScenarioSpec(
        name="table1-akamai", systems=(None,), seeds=(seed,),
        workload=None, params={"runs": 25 if quick else 100},
        runner="repro.experiments.table1:akamai_cell")
    metrics = SweepEngine(jobs=jobs).run(spec).cells[0].metrics

    table = ExperimentTable(
        title="Table I: Performance Measurement of Akamai Caching",
        columns=["location", "service", "dns_ms", "paper_dns_ms",
                 "rtt_ms", "paper_rtt_ms", "hops", "paper_hops"])
    measured = []
    for (site, service), paper in PAPER_TABLE1.items():
        paper_dns, paper_rtt, paper_hops = paper
        dns_ms = float(_t.cast(float, metrics[f"{site}/{service}/dns_ms"]))
        rtt_ms = float(_t.cast(float, metrics[f"{site}/{service}/rtt_ms"]))
        hops = _t.cast(float, metrics[f"{site}/{service}/hops"])
        measured.append((site, service, dns_ms, rtt_ms, hops))
        table.add_row(location=site, service=service,
                      dns_ms=dns_ms, paper_dns_ms=paper_dns,
                      rtt_ms=rtt_ms, paper_rtt_ms=paper_rtt,
                      hops=hops, paper_hops=paper_hops)

    without_outlier = [entry for entry in measured
                       if not (entry[0] == "SaoPaulo"
                               and entry[1] == "yahoo")]
    mean_dns = sum(entry[2] for entry in without_outlier) \
        / len(without_outlier)
    mean_rtt = sum(entry[3] for entry in without_outlier) \
        / len(without_outlier)
    mean_hops = sum(entry[4] for entry in without_outlier) \
        / len(without_outlier)
    table.notes.append(
        f"means excluding the PoP-less Yahoo/Sao-Paulo cell: "
        f"DNS {mean_dns:.1f} ms (paper ~22), RTT {mean_rtt:.1f} ms "
        f"(paper ~38 incl. outliers), hops {mean_hops:.1f} (paper ~14 "
        f"one-way)")
    return table
