#!/usr/bin/env sh
# The full local gate: determinism/sim-safety lint, then the test suite.
#
# Usage: tools/check.sh [extra pytest args]
#
# Mirrors what CI enforces: `python -m repro.lint` must exit 0 (only
# baselined findings allowed — see docs/linting.md), and the tier-1
# pytest run must pass (which itself re-checks the lint gate via
# tests/test_lint_clean.py, so forgetting this script cannot skip it).
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo_root"

PYTHONPATH="$repo_root/src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH

echo "==> repro.lint"
python -m repro.lint

echo "==> repro.lint determinism"
# Two lint runs must print byte-identical JSON.
lint_a=$(mktemp) lint_b=$(mktemp)
spans_a=$(mktemp) spans_b=$(mktemp) trace_a=$(mktemp)
sweep_serial=$(mktemp) sweep_parallel=$(mktemp)
merged_serial=$(mktemp) merged_parallel=$(mktemp)
diff_out=$(mktemp) async_proj=$(mktemp -d)
admin_follow=$(mktemp)
trap 'rm -f "$lint_a" "$lint_b" \
    "$spans_a" "$spans_b" "$trace_a" \
    "$sweep_serial" "$sweep_parallel" \
    "$merged_serial" "$merged_parallel" \
    "$diff_out" "$admin_follow"; \
    rm -rf "$async_proj"' EXIT
python -m repro.lint --format json > "$lint_a"
python -m repro.lint --format json > "$lint_b"
if ! cmp -s "$lint_a" "$lint_b"; then
    echo "FAIL: two repro.lint runs produced different JSON" >&2
    exit 1
fi

echo "==> repro.lint async rules"
# The event-loop rules must bite: a scratch file with a dropped task
# handle (ASYNC102, the GC hazard) and one with a time.sleep written
# inside a coroutine (ASYNC101) each fail the lint with exit 1.
mkdir -p "$async_proj/src/scratch"
cat > "$async_proj/src/scratch/leak.py" <<'EOF'
import asyncio


async def work() -> None:
    await asyncio.sleep(0)


async def leak() -> None:
    asyncio.create_task(work())
EOF
cat > "$async_proj/src/scratch/stall.py" <<'EOF'
import asyncio
import time


async def stall() -> None:
    time.sleep(0.1)
    await asyncio.sleep(0)
EOF
for scratch in leak stall; do
    status=0
    python -m repro.lint "$async_proj/src/scratch/$scratch.py" \
        >/dev/null 2>&1 || status=$?
    if [ "$status" -ne 1 ]; then
        echo "FAIL: lint exited $status, not 1, on $scratch.py" >&2
        exit 1
    fi
done

echo "==> repro.cli obs (telemetry determinism smoke)"
python -m repro.cli obs --spans "$spans_a" \
    --export-trace "$trace_a" >/dev/null
python -m repro.cli obs --spans "$spans_b" >/dev/null
if ! cmp -s "$spans_a" "$spans_b"; then
    echo "FAIL: span JSONL export differs across two same-seed runs" >&2
    exit 1
fi
# The Perfetto export must at least be a well-formed trace document.
python - "$trace_a" <<'EOF'
import json, sys
document = json.load(open(sys.argv[1]))
events = document["traceEvents"]
assert events and any(event["ph"] == "X" for event in events), \
    "trace export has no complete events"
EOF
# A run diffed against itself is byte-empty.
python -m repro.cli diff "$spans_a" "$spans_b" \
    --output "$diff_out" >/dev/null 2>&1
if [ -s "$diff_out" ]; then
    echo "FAIL: same-seed self-diff is not byte-empty" >&2
    exit 1
fi

echo "==> repro.cli sweep (parallel/serial determinism)"
sweep_args="--systems APE-CACHE,APE-CACHE-LRU --seeds 0,1 \
    --n-apps 4 --duration-s 30 --json"
python -m repro.cli sweep $sweep_args --jobs 1 \
    --output "$sweep_serial" >/dev/null
python -m repro.cli sweep $sweep_args --jobs 2 \
    --output "$sweep_parallel" >/dev/null
if ! cmp -s "$sweep_serial" "$sweep_parallel"; then
    echo "FAIL: sweep --jobs 2 JSON differs from --jobs 1" >&2
    exit 1
fi

echo "==> repro.cli sweep --merged-telemetry (shard-merge determinism)"
# Folding every cell's telemetry shard into one registry must be
# order-independent: the serial and two-worker sweeps hand shards to
# Telemetry.merge in different interleavings, yet the merged metric
# JSONL must agree byte-for-byte (docs/telemetry.md, "merge contract").
python -m repro.cli sweep $sweep_args --jobs 1 \
    --merged-telemetry "$merged_serial" --output /dev/null >/dev/null
python -m repro.cli sweep $sweep_args --jobs 2 \
    --merged-telemetry "$merged_parallel" --output /dev/null >/dev/null
if ! cmp -s "$merged_serial" "$merged_parallel"; then
    echo "FAIL: shard-merged sweep telemetry differs between" \
        "--jobs 1 and --jobs 2" >&2
    exit 1
fi
if ! [ -s "$merged_serial" ]; then
    echo "FAIL: merged sweep telemetry export is empty" >&2
    exit 1
fi

echo "==> EXPERIMENTS.md (fresh run matches, paper's shape holds)"
# Regenerate all 13 sections in quick mode: each must appear byte for
# byte in the committed EXPERIMENTS.md and pass its shape assertions
# (AP lookup < 10 ms against > 15 ms, ~4x cheaper retrieval, PACM ahead
# of LRU on high-priority objects, ...).
python tools/make_experiments_report.py --check

# The remaining stages need working loopback sockets; sandboxes that
# forbid them get a printed skip, not a failure.
if python - <<'EOF'
import socket
try:
    probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    probe.bind(("127.0.0.1", 0))
    probe.close()
except OSError as err:
    raise SystemExit(f"no loopback sockets: {err}")
EOF
then
    loopback=yes
else
    loopback=no
fi

echo "==> live-parity (sim vs live engine replay)"
# Replay one workload through the virtual-time simulator AND the
# wall-clock live stack on loopback sockets, asserting identical
# request taxonomy and stage attributions within the documented
# jitter tolerance, and a live run inside its health bounds
# (docs/live.md).
if [ "$loopback" = yes ]; then
    python -m repro.cli parity
else
    echo "SKIP: live-parity (loopback sockets unavailable here)" >&2
fi

echo "==> bench/smoke.sh (request-path benchmark: tests + 2 s runs)"
# Every workload, correctness check, traced run and the report writer
# of the benchmark the driver gates PRs on (bench/README.md); numbers
# from a smoke run are not comparable.
if [ "$loopback" = yes ]; then
    bash bench/smoke.sh
else
    echo "SKIP: bench/smoke.sh (loopback sockets unavailable here)" >&2
fi

echo "==> live admin plane (scrape determinism + drain + stall gate)"
# Start the demo stack with the admin plane bound, scrape /metrics
# twice through the strict exposition parser (every line must parse,
# families in sorted order, two idle scrapes byte-identical), follow
# it with `obs --follow`, then watch /healthz flip 200 -> 503 through
# the SIGTERM drain window (docs/live.md).
if [ "$loopback" = yes ]; then
    python - "$admin_follow" <<'EOF'
import json
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

from repro.telemetry.exposition import parse_exposition

process = subprocess.Popen(
    [sys.executable, "-m", "repro.cli", "live", "--serve",
     "--requests", "2", "--metrics-port", "0",
     "--watchdog-interval-s", "30", "--drain-grace-s", "1"],
    stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
try:
    port = None
    deadline = time.monotonic() + 30.0
    for line in process.stdout:
        match = re.search(r"admin/http on 127\.0\.0\.1:(\d+)", line)
        if match:
            port = int(match.group(1))
        if "serving (SIGINT" in line:
            break
        assert time.monotonic() < deadline, "stack never reached serving"
    assert port, "no admin/http endpoint printed"
    base = f"http://127.0.0.1:{port}"

    def get(path):
        with urllib.request.urlopen(base + path, timeout=10) as reply:
            return reply.status, reply.read()

    status, first = get("/metrics")
    assert status == 200, f"/metrics -> {status}"
    status, second = get("/metrics")
    assert first == second, "two idle /metrics scrapes differ"
    families = parse_exposition(first.decode("utf-8"))
    names = [family.name for family in families]
    assert names == sorted(names), "families out of sorted order"
    assert any(family.source == "live.loop_lag_ms"
               for family in families), "watchdog histogram missing"

    follow = subprocess.run(
        [sys.executable, "-m", "repro.cli", "obs", "--follow", base,
         "--interval", "0.2", "--count", "2",
         "--export-metrics", sys.argv[1]],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    assert follow.returncode == 0, "obs --follow failed"
    panels = follow.stdout.count("== obs: per-stage latency breakdown")
    assert panels == 2, f"obs --follow rendered {panels} panels, not 2"

    status, body = get("/healthz")
    assert status == 200 and json.loads(body)["state"] == "serving"

    process.send_signal(signal.SIGTERM)
    saw_draining = False
    for _ in range(20):
        try:
            with urllib.request.urlopen(base + "/healthz",
                                        timeout=2) as reply:
                pass
        except urllib.error.HTTPError as err:
            if err.code == 503 and \
                    json.loads(err.read())["state"] == "draining":
                saw_draining = True
                break
        except OSError:
            break
        time.sleep(0.1)
    assert saw_draining, "/healthz never reported 503/draining"
    assert process.wait(timeout=30) == 0, "live stack exited non-zero"
finally:
    if process.poll() is None:
        process.kill()
EOF
    # An injected loop stall must break a live-health bound, so
    # `live` exits non-zero...
    if python -m repro.cli live --requests 0 --inject-stall-ms 600 \
            --watchdog-interval-s 0.25 >/dev/null 2>&1; then
        echo "FAIL: live exited 0 despite an injected loop stall" >&2
        exit 1
    fi
    # ...and a clean demo run holds every bound (exit 0).
    python -m repro.cli live --requests 2 >/dev/null
else
    echo "SKIP: live admin plane (loopback sockets unavailable here)" >&2
fi

echo "==> pytest"
python -m pytest -x -q "$@"
