"""Command-line interface: ``python -m repro <experiment> [options]``.

Lists and runs the paper's experiments from a terminal::

    python -m repro list
    python -m repro table1
    python -m repro fig13 --full --seed 3 --jobs 4
    python -m repro all
    python -m repro sweep --systems APE-CACHE,Wi-Cache --seeds 0,1 \\
        --duration-s 60 --jobs 2 --json

``sweep`` runs an ad-hoc declarative scenario through the sweep engine;
its output is deterministic, so ``--jobs 2`` and ``--jobs 1`` produce
byte-identical results (``tools/check.sh`` enforces this).
"""

from __future__ import annotations

import argparse
import ast
import sys
import typing as _t

from repro._version import __version__
from repro.experiments import EXPERIMENTS
from repro.experiments.common import full_requested
from repro.perf import perf_timer

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree: one subcommand per experiment plus `list`."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="APE-CACHE reproduction: run the paper's experiments.")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command")

    subparsers.add_parser("list", help="list available experiments")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--full", action="store_true",
                        help="paper-length (1 h) runs instead of quick")
    common.add_argument("--seed", type=int, default=0,
                        help="master random seed (default 0)")
    common.add_argument("--format", choices=("text", "csv", "json"),
                        default="text", help="output format")
    common.add_argument("--output", type=str, default=None,
                        help="write results to this file instead of stdout")
    common.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="run sweep cells across N worker processes "
                             "(default 1 = in-process)")

    for name, (description, _path) in EXPERIMENTS.items():
        subparsers.add_parser(name, help=description, parents=[common])
    subparsers.add_parser("all", help="run every experiment in order",
                          parents=[common])

    sweep = subparsers.add_parser(
        "sweep",
        help="run an ad-hoc declarative scenario through the sweep "
             "engine (deterministic across --jobs)")
    sweep.add_argument("--name", type=str, default="cli-sweep",
                       help="scenario name (labels the output)")
    sweep.add_argument("--systems", type=str, default="APE-CACHE",
                       help="comma-separated system names (see "
                            "repro.runner.system_names)")
    sweep.add_argument("--seeds", type=str, default="0",
                       help="comma-separated seed list (default 0)")
    sweep.add_argument("--n-apps", type=int, default=None,
                       help="workload app count override")
    sweep.add_argument("--duration-s", type=float, default=None,
                       help="simulated duration per cell (seconds)")
    sweep.add_argument("--axis", action="append", default=[],
                       metavar="FIELD=V1,V2,...",
                       help="sweep a workload field over values "
                            "(repeatable; dotted keys reach "
                            "dummy_params.*/testbed.*)")
    sweep.add_argument("--set", action="append", default=[],
                       metavar="FIELD=VALUE", dest="overrides",
                       help="fixed workload override applied to every "
                            "cell (repeatable)")
    sweep.add_argument("--telemetry", action="store_true",
                       help="attach a telemetry snapshot to every cell")
    sweep.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker process count (default 1)")
    sweep.add_argument("--runner", type=str, default="workload",
                       help="cell runner: workload or a "
                            "module:function path (default workload)")
    sweep.add_argument("--json", action="store_true",
                       help="emit the full per-cell JSON document "
                            "instead of a table")
    sweep.add_argument("--merged-telemetry", type=str, default=None,
                       metavar="FILE",
                       help="fold every cell's telemetry shard into "
                            "one registry and write its metric JSONL "
                            "to FILE (implies --telemetry; "
                            "byte-identical across --jobs)")
    sweep.add_argument("--output", type=str, default=None,
                       help="write results to this file instead of stdout")

    obs = subparsers.add_parser(
        "obs", parents=[common],
        help="telemetry panel: per-stage latency breakdown, "
             "critical-path attribution, per-app hit ratios, exports")
    obs.add_argument("--spans", "--export-spans", type=str,
                     default=None, metavar="FILE", dest="spans",
                     help="write the run's span log to FILE as JSONL")
    obs.add_argument("--export-metrics", type=str, default=None,
                     metavar="FILE",
                     help="write every metric record to FILE as JSONL")
    obs.add_argument("--export-trace", type=str, default=None,
                     metavar="FILE",
                     help="write a Chrome trace-event JSON of the span "
                          "trees to FILE (view in ui.perfetto.dev)")
    obs.add_argument("--profile", action="store_true",
                     help="also report host events/sec and wall-ms "
                          "per sim-s")
    obs.add_argument("--backend", type=str, default="exact",
                     choices=("exact", "sketch"),
                     help="histogram storage: exact raw samples or "
                          "the fixed-memory mergeable quantile sketch "
                          "(default exact)")
    obs.add_argument("--tail-threshold-ms", type=float, default=None,
                     metavar="MS",
                     help="tail-sample traces: keep every request "
                          "slower than MS end-to-end (plus errors)")
    obs.add_argument("--tail-sample-every", type=int, default=0,
                     metavar="N",
                     help="tail-sample traces: also keep a "
                          "deterministic 1-in-N baseline")
    obs.add_argument("--fleet", type=int, default=0, metavar="N_APS",
                     help="also run an N-AP distributed Wi-Cache "
                          "fleet and render the merged per-AP shard "
                          "rollup (per-AP hit ratio + Gini)")
    obs.add_argument("--top", type=int, default=0, metavar="N",
                     help="also list the N slowest request traces "
                          "with per-stage self-times")
    obs.add_argument("--follow", type=str, default=None, metavar="URL",
                     help="stream mode: poll a live admin plane's "
                          "/metrics endpoint and re-render the panels "
                          "each interval instead of running the sim")
    obs.add_argument("--interval", type=float, default=2.0,
                     metavar="S",
                     help="poll interval for --follow (default 2 s)")
    obs.add_argument("--count", type=int, default=0, metavar="N",
                     help="stop --follow after N polls "
                          "(default 0 = until the endpoint goes away)")

    live = subparsers.add_parser(
        "live",
        help="serve the live stack on loopback sockets (real asyncio "
             "DNS/HTTP, wall-clock engine) and run a demo fetch driver")
    live.add_argument("--requests", type=int, default=6, metavar="N",
                      help="demo requests to drive before idling "
                           "(default 6; 0 = none)")
    live.add_argument("--serve", action="store_true",
                      help="stay up after the demo until SIGINT/"
                           "SIGTERM, then drain and exit (0, or 1 "
                           "if a live-health bound broke)")
    live.add_argument("--spans", type=str, default="", metavar="FILE",
                      help="flush the span log to FILE as JSONL on "
                           "shutdown")
    live.add_argument("--export-metrics", type=str, default="",
                      metavar="FILE",
                      help="flush metric records to FILE as JSONL on "
                           "shutdown")
    live.add_argument("--logs", type=str, default="", metavar="FILE",
                      help="flush the structured log (trace-correlated "
                           "JSONL) to FILE on shutdown")
    live.add_argument("--metrics-port", type=int, default=None,
                      metavar="PORT",
                      help="bind the admin plane (/metrics, /healthz, "
                           "/debug/traces) on PORT (0 = ephemeral; "
                           "default: no admin plane)")
    live.add_argument("--drain-grace-s", type=float, default=0.0,
                      metavar="S",
                      help="hold the 'draining' state for S seconds "
                           "before closing listeners (default 0)")
    live.add_argument("--watchdog-interval-s", type=float,
                      default=0.25, metavar="S",
                      help="event-loop lag watchdog probe interval "
                           "(default 0.25 s)")
    live.add_argument("--inject-stall-ms", type=float, default=0.0,
                      metavar="MS",
                      help="debug: block the event loop for MS after "
                           "the demo to exercise the stall watchdog")

    subparsers.add_parser(
        "parity", parents=[common],
        help="replay one workload through the sim and live engines, "
             "diff the stage attributions and check the live run's "
             "health (docs/live.md)")

    diff = subparsers.add_parser(
        "diff", parents=[common],
        help="diff two exported runs (JSONL paths) or two systems "
             "across a seed fleet with significance annotations")
    diff.add_argument("runs", nargs="*", metavar="RUN",
                      help="two exported runs: spans/metrics .jsonl "
                           "files or directories holding spans.jsonl/"
                           "metrics.jsonl")
    diff.add_argument("--systems", type=str, default=None,
                      metavar="A,B",
                      help="compare two systems across --seeds instead "
                           "of two exported runs")
    diff.add_argument("--seeds", type=str, default="0,1,2",
                      help="seed fleet for --systems (default 0,1,2)")
    diff.add_argument("--n-apps", type=int, default=None,
                      help="workload app count override (--systems)")
    diff.add_argument("--duration-s", type=float, default=None,
                      help="simulated seconds per run (--systems)")
    diff.add_argument("--tolerance", type=float, default=0.0,
                      help="absolute delta below which values are "
                           "equal (default 0 = byte-exact)")
    return parser


def _render_tables(result: object, fmt: str) -> str:
    tables = result if isinstance(result, list) else [result]
    if fmt == "csv":
        return "\n".join(table.to_csv() for table in tables)
    if fmt == "json":
        return "[\n" + ",\n".join(table.to_json()
                                  for table in tables) + "\n]"
    return "\n\n".join(table.render() for table in tables)


def _parse_scalar(text: str) -> object:
    """``--axis``/``--set`` values: Python literals, else bare strings."""
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def _split_kv(item: str, flag: str) -> tuple[str, str]:
    field, sep, value = item.partition("=")
    if not sep or not field:
        from repro.errors import ConfigError

        raise ConfigError(f"{flag} expects FIELD=VALUE, got {item!r}")
    return field, value


def _run_sweep(args: argparse.Namespace) -> str:
    """Build the ad-hoc spec from flags, run it, render the result."""
    from repro.apps.workload import WorkloadConfig
    from repro.runner import ScenarioSpec, SweepEngine, cells_table

    systems = tuple(name.strip() for name in args.systems.split(",")
                    if name.strip())
    seeds = tuple(int(seed) for seed in args.seeds.split(",")
                  if seed.strip())
    workload_kwargs: dict[str, _t.Any] = {}
    if args.n_apps is not None:
        workload_kwargs["n_apps"] = args.n_apps
    axes: dict[str, tuple[object, ...]] = {}
    for item in args.axis:
        field, values = _split_kv(item, "--axis")
        axes[field] = tuple(_parse_scalar(value)
                            for value in values.split(","))
    overrides: dict[str, object] = {}
    for item in args.overrides:
        field, value = _split_kv(item, "--set")
        overrides[field] = _parse_scalar(value)

    spec = ScenarioSpec(
        name=args.name, systems=systems, seeds=seeds,
        workload=WorkloadConfig(**workload_kwargs), axes=axes,
        overrides=overrides, duration_s=args.duration_s,
        runner=args.runner,
        telemetry=args.telemetry or bool(args.merged_telemetry))
    result = SweepEngine(jobs=args.jobs).run(spec)
    if args.merged_telemetry:
        from repro.telemetry.export import write_metrics_jsonl

        count = write_metrics_jsonl(result.merged_telemetry(),
                                    args.merged_telemetry)
        print(f"sweep: wrote {count} merged metric records to "
              f"{args.merged_telemetry}", file=sys.stderr)
    if args.json:
        return result.to_json()
    return cells_table(result).render()


def _run_diff(args: argparse.Namespace) -> str:
    """Diff two exported runs, or two systems across a seed fleet."""
    from repro.errors import ConfigError

    if args.systems:
        from repro.telemetry.analysis import compare_systems

        names = [name.strip() for name in args.systems.split(",")
                 if name.strip()]
        if len(names) != 2:
            raise ConfigError(
                f"--systems expects exactly two names, got {names}")
        seeds = tuple(int(seed) for seed in args.seeds.split(",")
                      if seed.strip())
        return compare_systems(
            names[0], names[1], seeds=seeds, n_apps=args.n_apps,
            duration_s=args.duration_s, jobs=args.jobs).render()
    if len(args.runs) != 2:
        raise ConfigError(
            "diff expects two exported run paths (or --systems A,B)")
    from repro.telemetry.analysis import diff_runs, load_run

    delta = diff_runs(load_run(args.runs[0]), load_run(args.runs[1]),
                      tolerance=args.tolerance)
    return delta.render()


def _emit(rendered: str, output: str | None) -> None:
    if output:
        with open(output, "w") as handle:
            handle.write(rendered + "\n")
        print(f"wrote {output}", file=sys.stderr)
    else:
        print(rendered)


def main(argv: _t.Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command in (None, "list"):
        width = max(len(name) for name in EXPERIMENTS)
        print("available experiments:")
        for name, (description, _path) in EXPERIMENTS.items():
            print(f"  {name.ljust(width)}  {description}")
        print(f"  {'all'.ljust(width)}  run everything")
        print(f"  {'obs'.ljust(width)}  telemetry panel: per-stage "
              f"latency, attribution, hit ratios, exports")
        print(f"  {'diff'.ljust(width)}  diff two exported runs or two "
              f"systems across a seed fleet")
        print(f"  {'sweep'.ljust(width)}  ad-hoc declarative scenario "
              f"through the sweep engine")
        print(f"  {'live'.ljust(width)}  serve the stack on loopback "
              f"sockets (wall-clock engine, real asyncio DNS/HTTP)")
        print(f"  {'parity'.ljust(width)}  replay one workload through "
              f"sim and live engines and diff stage attributions")
        return 0

    if args.command == "live":
        from repro.engine.live import run_live
        from repro.errors import ReproError

        print("--- live: APE-CACHE on loopback sockets ---",
              file=sys.stderr, flush=True)
        try:
            return run_live(demo_requests=args.requests,
                            serve=args.serve,
                            spans_path=args.spans,
                            metrics_path=args.export_metrics,
                            logs_path=args.logs,
                            metrics_port=args.metrics_port,
                            drain_grace_s=args.drain_grace_s,
                            watchdog_interval_s=args.watchdog_interval_s,
                            inject_stall_ms=args.inject_stall_ms)
        except (ReproError, OSError) as error:
            print(f"live: {error}", file=sys.stderr)
            return 2

    if args.command == "sweep":
        from repro.errors import ConfigError

        elapsed = perf_timer()
        try:
            rendered = _run_sweep(args)
        except ConfigError as error:
            print(f"sweep: {error}", file=sys.stderr)
            return 2
        _emit(rendered, args.output)
        print(f"done in {elapsed():.0f}s", file=sys.stderr)
        return 0

    quick = not (args.full or full_requested())

    elapsed = perf_timer()
    if args.command == "obs" and args.follow:
        from repro.errors import ReproError
        from repro.telemetry.obs import follow_obs

        print("--- obs: following a live admin plane ---",
              file=sys.stderr, flush=True)
        try:
            return follow_obs(args.follow, interval_s=args.interval,
                              count=args.count,
                              metrics_path=args.export_metrics)
        except (ReproError, OSError) as error:
            print(f"obs: {error}", file=sys.stderr)
            return 2
    if args.command == "obs":
        from repro.telemetry.obs import run_obs

        print("--- obs: unified telemetry panel ---", file=sys.stderr,
              flush=True)
        rendered = _render_tables(
            run_obs(quick, args.seed, spans_path=args.spans,
                    profile=args.profile,
                    metrics_path=args.export_metrics,
                    trace_path=args.export_trace,
                    backend=args.backend,
                    tail_threshold_ms=args.tail_threshold_ms,
                    tail_sample_every=args.tail_sample_every,
                    fleet=args.fleet, top=args.top), args.format)
    elif args.command == "parity":
        from repro.engine.parity import run_parity
        from repro.errors import ReproError

        print("--- parity: sim vs live engine replay ---",
              file=sys.stderr, flush=True)
        try:
            tables, code = run_parity(
                quick=quick, seed=args.seed,
                emit=lambda line: print(line, file=sys.stderr,
                                        flush=True))
        except (ReproError, OSError) as error:
            print(f"parity: {error}", file=sys.stderr)
            return 2
        _emit(_render_tables(tables, args.format), args.output)
        print(f"done in {elapsed():.0f}s", file=sys.stderr)
        return code
    elif args.command == "diff":
        from repro.errors import ConfigError, TelemetryError

        try:
            rendered = _run_diff(args)
        except (ConfigError, TelemetryError, OSError,
                ValueError) as error:
            print(f"diff: {error}", file=sys.stderr)
            return 2
        # An identical pair diffs to the empty string — keep it
        # *byte*-empty (no trailing newline) so tools can gate on it.
        if args.output:
            with open(args.output, "w") as handle:
                handle.write(rendered + "\n" if rendered else "")
            print(f"wrote {args.output}", file=sys.stderr)
        elif rendered:
            print(rendered)
        print(f"done in {elapsed():.0f}s", file=sys.stderr)
        return 0
    else:
        from repro.runner.registry import resolve_path

        names = (list(EXPERIMENTS) if args.command == "all"
                 else [args.command])
        chunks = []
        for name in names:
            description, path = EXPERIMENTS[name]
            print(f"--- {name}: {description} ---", file=sys.stderr,
                  flush=True)
            chunks.append(_render_tables(
                resolve_path(path)(quick=quick, seed=args.seed,
                                   jobs=args.jobs), args.format))
        rendered = "\n\n".join(chunks)
    _emit(rendered, args.output)
    print(f"done in {elapsed():.0f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
