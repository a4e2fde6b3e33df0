"""The live stack's import footprint stays free of the experiment layer.

``repro.telemetry`` imports ``ExperimentTable`` from
``repro.experiments.common``, so every live stack loads
``repro.experiments/__init__.py``.  That package must stay a list of
strings: an eager import there would drag the sweep engine, baselines
and measurement studies into every live start-up.

The AP runs on a router, so the request path imports no third-party
package either: numpy alone is 84 modules and about 12 MiB of RSS.
Only ``repro.analysis`` (off the request path) uses scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

_PROBE = """
import json, sys
import {module}
print(json.dumps(sorted(sys.modules)))
"""


def loaded_after_import(module):
    """Every module name in ``sys.modules`` after a fresh ``import``."""
    result = subprocess.run(
        [sys.executable, "-c", _PROBE.format(module=module)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
    return json.loads(result.stdout)


def test_live_engine_imports_no_experiment_runner_or_analysis():
    loaded = [name for name in loaded_after_import("repro.engine.live")
              if name.startswith("repro.")]
    assert "repro.engine.live" in loaded
    experiments = [name for name in loaded
                   if name.startswith("repro.experiments.")]
    assert experiments in ([], ["repro.experiments.common"])
    assert not [name for name in loaded
                if name.split(".")[1] in ("runner", "analysis")]


@pytest.mark.parametrize("module", ["repro", "repro.engine.live"])
def test_request_path_imports_no_numpy_or_scipy(module):
    loaded = loaded_after_import(module)
    assert module in loaded
    assert [name for name in loaded
            if name.split(".")[0] in ("numpy", "scipy")] == []


def test_simulator_testbed_loads_no_asyncio():
    """The virtual-time stack never pays for the real-time engine: the
    engine package imports nothing, so only the live stack loads
    asyncio and the wall clock."""
    loaded = loaded_after_import("repro.testbed")
    assert "repro.testbed" in loaded
    assert [name for name in loaded
            if name.split(".")[0] == "asyncio"
            or name == "repro.engine.wallclock"] == []
