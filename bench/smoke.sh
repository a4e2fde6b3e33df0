#!/usr/bin/env bash
# The benchmark's own checks, for CI and the inner loop: its unit tests,
# then every workload, correctness check, traced run and the report
# writer at 2 s per run.  Numbers from --smoke are not comparable.
set -euo pipefail
cd "$(dirname "$0")/.."
python3 -m pytest bench/tests -q -p no:cacheprovider
python3 -m bench.run --smoke
