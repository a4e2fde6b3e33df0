"""The live stack's import footprint stays free of the experiment layer.

``repro.telemetry`` imports ``ExperimentTable`` from
``repro.experiments.common``, so every live stack loads
``repro.experiments/__init__.py``.  That package must stay a list of
strings: an eager import there would drag the sweep engine, baselines
and measurement studies into every live start-up.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_PROBE = """
import json, sys
import repro.engine.live
print(json.dumps(sorted(name for name in sys.modules
                        if name.startswith("repro."))))
"""


def test_live_engine_imports_no_experiment_runner_or_analysis():
    result = subprocess.run(
        [sys.executable, "-c", _PROBE], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
    loaded = json.loads(result.stdout)
    assert "repro.engine.live" in loaded
    experiments = [name for name in loaded
                   if name.startswith("repro.experiments.")]
    assert experiments in ([], ["repro.experiments.common"])
    assert not [name for name in loaded
                if name.split(".")[1] in ("runner", "analysis")]
