"""Experiment Table VII: programming effort of the two models.

Measures, from this repository's actual source code:

* **Impacted LoCs** — lines a developer touches to integrate each app:
  the ``cacheable(...)`` declarations for the annotation model, versus
  the rewritten call-site lines for the API model;
* **Re-write logic** — whether app control flow had to change.

The analysis executes as one system-less scenario cell.
"""

from __future__ import annotations

import inspect

import repro.apps.api_ports as api_ports
import repro.apps.movietrailer as movietrailer
import repro.apps.virtualhome as virtualhome
from repro.experiments.common import ExperimentTable
from repro.runner import ScenarioSpec, SweepEngine
from repro.runner.spec import Cell

__all__ = ["run", "effort_cell", "annotation_impacted_locs",
           "api_impacted_locs"]


def annotation_impacted_locs(api_class: type) -> int:
    """Lines occupied by ``cacheable(...)`` declarations in the class."""
    source = inspect.getsource(api_class)
    count = 0
    in_declaration = False
    depth = 0
    for line in source.splitlines():
        stripped = line.strip()
        if "cacheable(" in stripped:
            in_declaration = True
            depth = 0
        if in_declaration:
            count += 1
            depth += stripped.count("(") - stripped.count(")")
            if depth <= 0:
                in_declaration = False
    return count


def api_impacted_locs(method) -> int:
    """Rewritten call-site lines between the BEGIN/END markers."""
    source = inspect.getsource(method)
    count = 0
    counting = False
    for line in source.splitlines():
        stripped = line.strip()
        if stripped.startswith("# BEGIN rewritten"):
            counting = True
            continue
        if stripped.startswith("# END rewritten"):
            counting = False
            continue
        if counting and stripped and not stripped.startswith("#"):
            count += 1
    return count


def effort_cell(cell: Cell) -> dict[str, object]:
    """Cell runner: the full programming-effort static analysis."""
    del cell  # static analysis; nothing to scale or randomize
    return {
        "movietrailer_annotation_locs": annotation_impacted_locs(
            movietrailer.MovieTrailerApi),
        "movietrailer_api_locs": api_impacted_locs(
            api_ports.MovieTrailerApiBased.fetch_movie),
        "virtualhome_annotation_locs": annotation_impacted_locs(
            virtualhome.VirtualHomeApi),
        "virtualhome_api_locs": api_impacted_locs(
            api_ports.VirtualHomeApiBased.place_furniture),
    }


def run(quick: bool = True, seed: int = 0,
        jobs: int = 1) -> ExperimentTable:
    del quick  # static analysis; nothing to scale
    spec = ScenarioSpec(
        name="table7-effort", systems=(None,), seeds=(seed,),
        workload=None, runner="repro.experiments.table7:effort_cell")
    metrics = SweepEngine(jobs=jobs).run(spec).cells[0].metrics
    table = ExperimentTable(
        title="Table VII: Programming efforts comparison",
        columns=["app", "approach", "impacted_locs",
                 "rewrite_logic", "paper_locs"])
    table.add_row(app="MovieTrailer", approach="APE-CACHE (annotations)",
                  impacted_locs=metrics["movietrailer_annotation_locs"],
                  rewrite_logic="No", paper_locs=5)
    table.add_row(app="MovieTrailer", approach="API-based",
                  impacted_locs=metrics["movietrailer_api_locs"],
                  rewrite_logic="Yes", paper_locs=30)
    table.add_row(app="VirtualHome", approach="APE-CACHE (annotations)",
                  impacted_locs=metrics["virtualhome_annotation_locs"],
                  rewrite_logic="No", paper_locs=2)
    table.add_row(app="VirtualHome", approach="API-based",
                  impacted_locs=metrics["virtualhome_api_locs"],
                  rewrite_logic="Yes", paper_locs=14)
    table.notes.append(
        "paper: annotations impact 5/2 LoCs vs 30/14 for the API model; "
        "both add ~32 kb of client binary; only the API model rewrites "
        "app logic")
    return table
