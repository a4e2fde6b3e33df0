"""Printing: every metric by name, with its unit."""

from __future__ import annotations

import typing as _t

from bench.metrics import END_TO_END

Report = dict[str, _t.Any]


def _number(value: object) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return str(value).lower()
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_run(run: Report) -> None:
    """One run: header, checks, metrics, self-time table."""
    kind = "traced" if run["trace"] else "untraced"
    print(f"== {run['workload']} ({kind}) seed={run['seed']} "
          f"seconds={run['seconds']:g} transport: {run['transport']}")
    host = run["host"]
    print(f"   host: nproc={host['nproc']} python={host['python']} "
          f"calib_ms={host['calib_ms']:.1f} "
          f"load={host['loadavg_start'][0]:.2f}->"
          f"{host['loadavg_end'][0]:.2f} cpu={host['cpu_model']}")
    everything = run["all_samples"]
    print(f"   attempted={run['attempted']} failed={run['failed']} "
          f"slices={run['slices']} ({run['tail_samples_beyond']:.0f} "
          f"samples beyond a slice's p90) noisy={_number(run['noisy'])}")
    print(f"   over all {everything['count']} samples, for reference: p50 "
          f"{everything['latency_p50_ms']:.4g} ms, "
          f"p{everything['tail_percentile']:g} "
          f"{everything['latency_tail_ms']:.4g} ms")
    for check in run["checks"]:
        verdict = "ok  " if check["ok"] else "FAIL"
        detail = "" if check["ok"] else f" - {check['detail']}"
        print(f"   [{verdict}] {check['name']}{detail}")
    for name, entry in run["metrics"].items():
        spread = entry.get("spread")
        tail = f"  (slice spread {spread:.1%})" if spread is not None else ""
        print(f"   {name:<40} {_number(entry['value']):>12} "
              f"{entry['unit']}{tail}")
    if "self_time" in run:
        print("   self time per fetch:")
        for row in run["self_time"]:
            calls = "" if row["calls_per_req"] is None \
                else f"{row['calls_per_req']:8.2f} calls"
            print(f"     {row['span']:<28} {row['self_ms']:10.4f} ms "
                  f"{row['share']:7.1%} {calls}")
        print(f"   trace written to {run['traced']['trace_file']}")


def print_set(document: Report, path: str) -> None:
    """The end-to-end table of a whole set, one column per workload."""
    names = list(document["workloads"])
    print(f"\n== set: seed={document['seed']} seconds="
          f"{document['seconds']:g} -> {path}")
    print(f"   {'metric':<22}{'unit':<7}"
          + "".join(f"{name:>19}" for name in names))
    for metric in END_TO_END:
        cells = []
        for name in names:
            run = document["workloads"][name].get("untraced")
            value = run["metrics"][metric.name]["value"] if run else None
            cells.append(f"{_number(value):>19}")
        print(f"   {metric.name:<22}{metric.unit:<7}" + "".join(cells))
    for name in names:
        for kind, run in document["workloads"][name].items():
            failed = [check["name"] for check in run["checks"]
                      if not check["ok"]]
            if failed:
                print(f"   FAILED {name} ({kind}): {'; '.join(failed)}")
            if run["noisy"]:
                print(f"   noisy  {name} ({kind}): the generator ran late "
                      "or took a tenth of the CPU")
