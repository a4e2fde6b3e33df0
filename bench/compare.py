"""`--compare A.json B.json`: is B no worse than A, within the bounds?

Per workload and end-to-end metric: both values, the change (signed so
that positive is worse), the bound and a verdict.  A reported value is
the median of a run's slices; how far it can be trusted is the slices'
spread over the square root of their number (`noise_of`).  A metric is
`unresolved`, not `ok`, when that is wider than the bound on either
side: the run cannot tell a change that size from its own noise.
Exit 1 when a bound is exceeded or more fetches failed, 2 when
the two files do not come from comparable hosts.
"""

from __future__ import annotations

import json
import math
import typing as _t

from bench.metrics import END_TO_END

Report = dict[str, _t.Any]

#: `host.calib_ms` further apart than this draws a warning.
CALIBRATION_TOLERANCE = 0.10


def comparable(a: Report, b: Report) -> tuple[list[str], list[str]]:
    """(reasons the files cannot be compared, warnings)."""
    refusals, warnings = [], []
    host_a, host_b = a["host"], b["host"]
    if host_a["nproc"] != host_b["nproc"]:
        refusals.append(f"nproc differs: {host_a['nproc']} vs "
                        f"{host_b['nproc']}")
    minor_a, minor_b = (host["python"].split(".")[:2]
                        for host in (host_a, host_b))
    if minor_a != minor_b:
        refusals.append(f"Python differs: {host_a['python']} vs "
                        f"{host_b['python']}")
    if a["seconds"] != b["seconds"] or a["smoke"] or b["smoke"]:
        refusals.append("run length differs or a side is a --smoke set: "
                        f"{a['seconds']:g} s vs {b['seconds']:g} s")
    drift = abs(host_b["calib_ms"] / host_a["calib_ms"] - 1.0)
    if drift > CALIBRATION_TOLERANCE:
        warnings.append(
            f"host.calib_ms differs by {drift:.0%} "
            f"({host_a['calib_ms']:.0f} vs {host_b['calib_ms']:.0f} ms): "
            "the host ran at another speed; CPU-bound rows are suspect")
    return refusals, warnings


def noise_of(run: Report, entry: dict[str, _t.Any]) -> float:
    """Roughly the standard error of a median of `slices` values whose
    quartiles lie `spread` apart (0.93 * IQR / sqrt(n) for a normal
    sample), as a share of the value."""
    return (entry.get("spread") or 0.0) / math.sqrt(max(1, run["slices"]))


def worsening(metric: _t.Any, before: float, after: float) -> float:
    """Change as a share of `before`, positive when `after` is worse."""
    change = (after - before) / abs(before)
    return change if metric.better == "lower" else -change


def compare(a: Report, b: Report) -> tuple[list[str], int]:
    """Printable lines and the exit status."""
    refusals, warnings = comparable(a, b)
    if refusals:
        return [f"not comparable: {reason}" for reason in refusals], 2
    lines = [f"warning: {warning}" for warning in warnings]
    lines.append(f"{'workload':<18}{'metric':<20}{'A':>12}{'B':>12}"
                 f"{'worse by':>10}{'bound':>8}  verdict")
    status = 0
    for name in a["workloads"]:
        runs = [side["workloads"].get(name, {}).get("untraced")
                for side in (a, b)]
        if None in runs:
            lines.append(f"{name:<18}missing on one side")
            status = 1
            continue
        run_a, run_b = runs
        for metric in END_TO_END:
            entry_a = run_a["metrics"][metric.name]
            entry_b = run_b["metrics"][metric.name]
            worse = worsening(metric, entry_a["value"], entry_b["value"])
            noise = max(noise_of(run_a, entry_a), noise_of(run_b, entry_b))
            if worse > metric.bound:
                verdict = "REGRESSION"
                status = 1
            elif noise > metric.bound:
                verdict = f"unresolved (noise {noise:.1%})"
            else:
                verdict = "ok"
            lines.append(
                f"{name:<18}{metric.name:<20}{entry_a['value']:>12.5g}"
                f"{entry_b['value']:>12.5g}{worse:>+10.1%}"
                f"{metric.bound:>8.1%}  {verdict}")
        failed_a = run_a["failed"] / run_a["attempted"]
        failed_b = run_b["failed"] / run_b["attempted"]
        if failed_b > failed_a:
            lines.append(f"{name:<18}failed share rose: {failed_a:.4%} -> "
                         f"{failed_b:.4%}  REGRESSION")
            status = 1
        if not run_b["correct"]:
            lines.append(f"{name:<18}B failed a correctness check")
            status = 1
    return lines, status


def compare_files(path_a: str, path_b: str) -> int:
    documents = []
    for path in (path_a, path_b):
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    lines, status = compare(*documents)
    print("\n".join(lines))
    return status
