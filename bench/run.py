"""The benchmark's one command.

    python3 -m bench.run --seed N                     # full set -> bench/out/
    python3 -m bench.run --seed N --workload W        # one workload, both runs
    python3 -m bench.run --workload W --seed N --seconds S --trace 0|1
                                                      # one run (the driver's form)
    python3 -m bench.run --smoke                      # everything, briefly
    python3 -m bench.run --compare A.json B.json      # gate B against A

A single run prints its metrics by name with their units and, as the
last line of standard output, one JSON object {"correct", "attempted",
"failed", "metrics"}.  A set runs every (workload, untraced|traced)
pair in a fresh subprocess and writes one report.  Exit status is 0
only when every correctness check passed.
"""

from __future__ import annotations

import time

#: Set-up time is counted from here: the interpreter is up, nothing of
#: the program or the benchmark is imported yet.
_ENTERED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: `run_seconds` in BENCHMARK.json; what a run measures by default.
RUN_SECONDS = 24
SMOKE_SECONDS = 2

Report = dict


def _use_checkout_sources() -> None:
    """Measure the program in *this* checkout, never an installed copy."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"bench: {SRC}/repro not found - the benchmark drives the "
                 "program from source and must run inside its checkout")
    for path in (SRC, ROOT):
        if path in sys.path:
            sys.path.remove(path)
        sys.path.insert(0, path)


def _parser() -> argparse.ArgumentParser:
    from bench.metrics import WORKLOADS

    parser = argparse.ArgumentParser(prog="python3 -m bench.run",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1,
                        help="builds every input (default 1)")
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measured seconds per run (default "
                             f"{RUN_SECONDS}, {SMOKE_SECONDS} with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: one untraced run, end-to-end metrics; "
                             "1: one traced run, per-layer metrics; "
                             "omitted: both, each in a fresh subprocess")
    parser.add_argument("--out", metavar="FILE",
                        help="write the report here (default for a set: "
                             "bench/out/report-seed<N>.json)")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload and check, briefly; numbers "
                             "are not comparable and no bound applies")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two set reports; exit 1 on a "
                             "regression beyond a bound")
    return parser


def main(argv: list[str] | None = None) -> int:
    _use_checkout_sources()
    args = _parser().parse_args(argv)
    if args.compare:
        from bench.compare import compare_files

        return compare_files(*args.compare)
    seconds = args.seconds if args.seconds is not None else (
        SMOKE_SECONDS if args.smoke else RUN_SECONDS)
    if args.workload and args.trace is not None:
        return _single(args.workload, args.seed, seconds, bool(args.trace),
                       args.smoke, args.out)
    from bench.metrics import WORKLOADS

    workloads = [args.workload] if args.workload else list(WORKLOADS)
    return _set(workloads, args.seed, seconds, args.smoke, args.out)


def _single(workload: str, seed: int, seconds: float, traced: bool,
            smoke: bool, out: str | None) -> int:
    from bench import host, measure, report

    # `measure` pulled in the program (and numpy, networkx behind it).
    imports_s = time.perf_counter() - _ENTERED
    fingerprint = host.fingerprint()
    result = measure.run(workload, seed, seconds, traced, smoke, imports_s)
    result["host"] = host.finish(fingerprint)
    report.print_run(result)
    if out:
        _write(out, result)
    # The driver reads this line; absent layers read 0 here and null
    # in the report file.
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": entry["value"]
                           if entry["value"] is not None else 0.0,
                           "unit": entry["unit"]}
                    for name, entry in result["metrics"].items()},
    }))
    return 0 if result["correct"] else 1


def _set(workloads: list[str], seed: int, seconds: float, smoke: bool,
         out: str | None) -> int:
    """Every (workload, untraced|traced) run in its own process."""
    from bench import OUT_DIR, report

    os.makedirs(OUT_DIR, exist_ok=True)
    document: Report = {"schema": 1, "seed": seed, "seconds": seconds,
                        "smoke": smoke, "workloads": {}}
    status = 0
    for workload in workloads:
        runs = {}
        for traced in (0, 1):
            part = os.path.join(OUT_DIR, f"part-{workload}-{traced}.json")
            command = [sys.executable, "-m", "bench.run",
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(traced),
                       "--out", part] + (["--smoke"] if smoke else [])
            finished = subprocess.run(command, cwd=ROOT, check=False,
                                      stdout=subprocess.PIPE, text=True)
            # All but the child's last line, which is for the driver.
            print("\n".join(finished.stdout.splitlines()[:-1]), flush=True)
            if finished.returncode != 0:
                status = 1
            if not os.path.exists(part):
                print(f"bench: {workload} (trace {traced}) wrote no report",
                      file=sys.stderr)
                status = 1
                continue
            with open(part, encoding="utf-8") as handle:
                runs["traced" if traced else "untraced"] = json.load(handle)
            os.remove(part)
        document["workloads"][workload] = runs
    first = next((run for runs in document["workloads"].values()
                  for run in runs.values()), None)
    document["host"] = first["host"] if first else None
    target = out or os.path.join(OUT_DIR, f"report-seed{seed}.json")
    _write(target, document)
    report.print_set(document, os.path.relpath(target))
    return status


def _write(path: str, document: Report) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    sys.exit(main())
