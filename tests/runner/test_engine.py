"""SweepEngine execution, reduction, and serial/parallel determinism."""

import json

import pytest

from repro.apps.workload import WorkloadConfig
from repro.errors import ConfigError
from repro.runner import (
    ScenarioSpec,
    SweepEngine,
    SweepPoint,
    cells_table,
    fold_multiseed,
    sweep_table,
)
from repro.runner.engine import run_cell
from repro.runner.spec import Cell


def _tiny_spec(**kwargs):
    defaults = dict(
        name="engine-test", systems=("APE-CACHE", "Edge Cache"),
        seeds=(0, 1),
        workload=WorkloadConfig(n_apps=4, duration_s=30.0))
    defaults.update(kwargs)
    return ScenarioSpec(**defaults)


def echo_cell(cell: Cell) -> dict:
    """Module-level so pool workers can resolve it by dotted path."""
    return {"seed_value": float(cell.seed),
            "knob_value": float(cell.params.get("knob", 0))}


ECHO = f"{__name__}:echo_cell"


def _knob(value):
    return SweepPoint(label=value, overrides={"params.knob": value})


def test_engine_rejects_bad_jobs():
    with pytest.raises(ConfigError, match="jobs must be >= 1"):
        SweepEngine(jobs=0)


def test_run_cell_normalises_bare_dict():
    cell = Cell(index=3, scenario="s", runner=ECHO, system=None,
                seed=9, workload=None, params={}, coords={})
    envelope = run_cell(cell)
    assert envelope["index"] == 3
    assert envelope["system_name"] == "-"
    assert envelope["metrics"] == {"seed_value": 9.0, "knob_value": 0.0}


def test_serial_run_keeps_expansion_order():
    spec = _tiny_spec(systems=(None,), workload=None, runner=ECHO,
                      seeds=(0, 1, 2))
    result = SweepEngine(jobs=1).run(spec)
    assert [cr.cell.index for cr in result.cells] == [0, 1, 2]
    assert result.metric("seed_value") == [0.0, 1.0, 2.0]


def test_fold_multiseed_collects_seed_samples():
    spec = _tiny_spec(systems=(None,), workload=None, runner=ECHO,
                      seeds=(3, 5))
    folded = fold_multiseed(SweepEngine().run(spec))
    assert list(folded) == ["-"]
    assert folded["-"].seeds == [3, 5]
    assert folded["-"].samples["seed_value"] == [3.0, 5.0]


def test_fold_multiseed_rejects_axis_sweeps():
    spec = _tiny_spec(systems=(None,), workload=None, runner=ECHO,
                      axes={"knob": [_knob(1), _knob(2)]})
    result = SweepEngine().run(spec)
    with pytest.raises(ConfigError, match="axis-free"):
        fold_multiseed(result)


def test_sweep_table_axis_rows_system_columns():
    spec = ScenarioSpec(
        name="t", systems=(None,), seeds=(0, 1), workload=None,
        runner=ECHO, axes={"knob": [_knob(1), _knob(2)]})
    result = SweepEngine().run(spec)
    table = sweep_table(result, title="T", axis="knob",
                        metric="seed_value")
    assert table.columns == ["knob", "-"]
    assert [row["knob"] for row in table.rows] == [1, 2]
    # Two seeds (0, 1) reduce to their mean.
    assert [row["-"] for row in table.rows] == [0.5, 0.5]


def test_sweep_table_rejects_missing_metric():
    spec = _tiny_spec(systems=(None,), workload=None, runner=ECHO,
                      seeds=(0,))
    result = SweepEngine().run(spec)
    with pytest.raises(ConfigError, match="no numeric metric"):
        sweep_table(result, title="T", axis="knob", metric="nope")


def test_cells_table_flat_shape():
    spec = _tiny_spec(systems=(None,), workload=None, runner=ECHO,
                      seeds=(0, 1), axes={"knob": [_knob(7)]})
    table = cells_table(SweepEngine().run(spec))
    assert table.columns == ["system", "seed", "knob", "seed_value",
                             "knob_value"]
    assert len(table.rows) == 2
    assert table.rows[0]["system"] == "-"
    assert table.rows[0]["knob"] == 7
    assert table.rows[1]["seed_value"] == 1.0


def test_cells_table_renames_labels_and_casts():
    spec = _tiny_spec(systems=(None,), workload=None, runner=ECHO,
                      seeds=(2, 3))
    table = cells_table(SweepEngine().run(spec), "T",
                        {"count": "seed_value"}, identity=False,
                        labels={"knob": ("low", "high")}, ints=("count",))
    assert table.columns == ["knob", "count"]
    assert table.rows == [{"knob": "low", "count": 2},
                          {"knob": "high", "count": 3}]
    # An int renders without decimals, where the float would not.
    assert "2.000" not in table.render()


def test_workload_cells_resolve_system_name():
    spec = ScenarioSpec(name="wl", systems=("APE-CACHE",), seeds=(0,),
                        workload=WorkloadConfig(n_apps=3,
                                                duration_s=20.0))
    result = SweepEngine().run(spec)
    assert result.cells[0].system_name == "APE-CACHE"
    assert "mean_app_latency_ms" in result.cells[0].metrics
    assert "ap:hits_served" in result.cells[0].metrics


def test_telemetry_snapshot_threads_through_cells():
    spec = ScenarioSpec(name="tel", systems=("APE-CACHE",), seeds=(0,),
                        workload=WorkloadConfig(n_apps=3,
                                                duration_s=20.0),
                        telemetry=True)
    result = SweepEngine().run(spec)
    snapshot = result.cells[0].telemetry
    assert snapshot, "telemetry=True must attach metric records"
    assert all("name" in record for record in snapshot)


def test_unknown_system_surfaces_config_error():
    spec = ScenarioSpec(name="bad", systems=("NoSuchSystem",),
                        seeds=(0,),
                        workload=WorkloadConfig(n_apps=2,
                                                duration_s=10.0))
    with pytest.raises(ConfigError, match="unknown system"):
        SweepEngine().run(spec)


def test_parallel_and_serial_runs_are_byte_identical():
    """Tier-1 determinism guard: 2 systems x 2 seeds, jobs 2 vs 1."""
    spec = _tiny_spec()
    serial = SweepEngine(jobs=1).run(spec)
    parallel = SweepEngine(jobs=2).run(spec)
    assert serial.to_json() == parallel.to_json()
    assert cells_table(serial).render() == \
        cells_table(parallel).render()
    # Sanity: the JSON is real data, not two empty documents.
    payload = json.loads(serial.to_json())
    assert len(payload["cells"]) == 4
    assert {cell["system"] for cell in payload["cells"]} == \
        {"APE-CACHE", "Edge Cache"}


def _six_echo_cells():
    return _tiny_spec(systems=(None,), workload=None, runner=ECHO,
                      seeds=(0, 1, 2),
                      axes={"knob": [_knob(1), _knob(2)]})


def test_single_cpu_host_falls_back_to_serial(monkeypatch, capsys):
    import repro.runner.engine as engine_module

    monkeypatch.setattr(engine_module.os, "cpu_count", lambda: 1)
    engine = SweepEngine(jobs=4)
    result = engine.run(_six_echo_cells())
    assert engine.serial_fallback_reason is not None
    assert "single-CPU" in capsys.readouterr().err
    assert len(result.cells) == 6


def test_multi_cpu_host_keeps_the_pool_path(monkeypatch):
    import repro.runner.engine as engine_module

    monkeypatch.setattr(engine_module.os, "cpu_count", lambda: 8)
    calls = {}

    def fake_pool(self, cells):
        calls["cells"] = list(cells)
        return [run_cell(cell) for cell in cells]

    monkeypatch.setattr(SweepEngine, "_run_pool", fake_pool)
    engine = SweepEngine(jobs=4)
    engine.run(_six_echo_cells())
    assert engine.serial_fallback_reason is None
    assert len(calls["cells"]) == 6
