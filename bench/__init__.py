"""The request-path benchmark: four workloads driven from outside `src/`.

Run `python3 -m bench.run --help`; `bench/README.md` explains the
workloads, the metrics and how to read the output.
"""

import os

#: Run outputs (reports, part files, span traces); git-ignored.
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
