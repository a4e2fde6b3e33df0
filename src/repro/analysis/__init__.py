"""Statistics for experiment claims (multi-seed samples live in
:class:`repro.runner.MultiSeedResult`)."""

from repro.analysis.stats import (
    PairedComparison,
    SampleSummary,
    confidence_interval,
    paired_comparison,
    summarize,
)

__all__ = [
    "PairedComparison",
    "SampleSummary",
    "confidence_interval",
    "paired_comparison",
    "summarize",
]
