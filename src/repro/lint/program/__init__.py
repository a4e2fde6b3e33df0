"""``repro.lint.program`` — whole-program analysis beneath the linter.

The per-file checkers (DET001–DET003, SIM001–SIM002, CACHE001) can only
see one module at a time; this package builds a project-wide view and
runs inter-procedural passes on top of it:

* a **symbol table** and **call graph** across every scanned module,
  including ``module:function`` runner strings (the sweep engine's
  late-bound cell runners) and re-exported names;
* **determinism taint** (DET101/DET102): values born from unseeded
  RNGs, wall clocks, OS entropy, or raw dict/set iteration order are
  tracked through assignments, returns, and call edges until they reach
  a sim-visible sink — event scheduling, PACM utility, telemetry
  samples — and reported with the full source→sink trace;
* a **sim-race detector** (SIM101): attributes written by two or more
  distinct process generators with no intervening resource acquisition
  between them, reported with both write sites.

The pipeline is: :mod:`extract` turns the tree the engine already
parsed into a :class:`~repro.lint.program.model.ModuleSummary`;
:class:`~repro.lint.program.model.Program` links the summaries;
:mod:`passes` registers the program checkers the engine runs.

Everything here is deterministic by construction — sorted iteration
everywhere, no wall clocks — so two runs over the same tree produce
byte-identical findings.
"""

from __future__ import annotations

from repro.lint.program.model import (FunctionSummary, ModuleSummary,
                                      Program)

__all__ = [
    "FunctionSummary",
    "ModuleSummary",
    "Program",
]
