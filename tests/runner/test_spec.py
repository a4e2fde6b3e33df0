"""ScenarioSpec expansion, overrides, and registry edge cases."""

import dataclasses

import pytest

from repro.apps.workload import WorkloadConfig
from repro.errors import ConfigError
from repro.runner import (
    ScenarioSpec,
    SweepPoint,
    resolve_runner,
    resolve_system,
    system_names,
)
from repro.runner.spec import apply_overrides


def _spec(**kwargs):
    defaults = dict(name="spec-test", systems=("APE-CACHE",), seeds=(0,),
                    workload=WorkloadConfig(n_apps=4, duration_s=30.0))
    defaults.update(kwargs)
    return ScenarioSpec(**defaults)


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
def test_empty_seed_list_rejected():
    with pytest.raises(ConfigError, match="empty seed list"):
        _spec(seeds=())


def test_duplicate_seeds_rejected():
    with pytest.raises(ConfigError, match="duplicate seeds"):
        _spec(seeds=(1, 1))


def test_empty_name_rejected():
    with pytest.raises(ConfigError, match="non-empty name"):
        _spec(name="")


def test_empty_system_list_rejected():
    with pytest.raises(ConfigError, match="empty system list"):
        _spec(systems=())


def test_override_colliding_with_axis_rejected():
    with pytest.raises(ConfigError, match="collide with sweep axes"):
        _spec(axes={"n_apps": (5, 10)}, overrides={"n_apps": 20})


def test_override_colliding_with_sweep_point_axis_rejected():
    points = [SweepPoint(label="small",
                         overrides={"dummy_params.max_size_bytes": 1024})]
    with pytest.raises(ConfigError, match="collide with sweep axes"):
        _spec(axes={"size": points},
              overrides={"dummy_params.max_size_bytes": 4096})


def test_duration_axis_vs_spec_field_rejected():
    with pytest.raises(ConfigError, match="duration_s"):
        _spec(axes={"duration_s": (10.0, 20.0)}, duration_s=30.0)


def test_empty_axis_rejected():
    with pytest.raises(ConfigError, match="has no points"):
        _spec(axes={"n_apps": ()}).expand()


# ----------------------------------------------------------------------
# Expansion
# ----------------------------------------------------------------------
def test_expand_orders_axes_then_systems_then_seeds():
    spec = _spec(systems=("APE-CACHE", "Wi-Cache"), seeds=(0, 1),
                 axes={"n_apps": (2, 4)})
    cells = spec.expand()
    assert [cell.index for cell in cells] == list(range(8))
    assert [(cell.coords["n_apps"], cell.system, cell.seed)
            for cell in cells] == [
        (2, "APE-CACHE", 0), (2, "APE-CACHE", 1),
        (2, "Wi-Cache", 0), (2, "Wi-Cache", 1),
        (4, "APE-CACHE", 0), (4, "APE-CACHE", 1),
        (4, "Wi-Cache", 0), (4, "Wi-Cache", 1),
    ]
    assert [cell.workload.n_apps for cell in cells] == \
        [2, 2, 2, 2, 4, 4, 4, 4]


def test_expand_seeds_workload_and_testbed():
    cells = _spec(seeds=(7,)).expand()
    assert cells[0].seed == 7
    assert cells[0].workload.seed == 7
    assert cells[0].workload.testbed.seed == 7


def test_expand_applies_spec_duration():
    cells = _spec(duration_s=12.5).expand()
    assert cells[0].workload.duration_s == 12.5


def test_axis_duration_beats_spec_default():
    spec = _spec(axes={"duration_s": (10.0, 20.0)})
    assert [cell.workload.duration_s for cell in spec.expand()] == \
        [10.0, 20.0]


def test_params_prefix_routes_to_cell_params():
    spec = _spec(params={"base": 1},
                 overrides={"params.theta": 0.4},
                 axes={"alpha": [SweepPoint(
                     label=0.5, overrides={"params.alpha": 0.5})]})
    cell = spec.expand()[0]
    assert cell.params == {"base": 1, "theta": 0.4, "alpha": 0.5}
    assert cell.coords == {"alpha": 0.5}
    # params.* never leak into the workload config.
    assert cell.workload == dataclasses.replace(
        spec.workload, seed=0,
        testbed=dataclasses.replace(spec.workload.testbed, seed=0))


def test_sweep_point_sets_multiple_fields():
    point = SweepPoint(label="1~100", overrides={
        "dummy_params.min_size_bytes": 1024,
        "dummy_params.max_size_bytes": 100 * 1024})
    cell = _spec(axes={"size_range": [point]}).expand()[0]
    assert cell.coords == {"size_range": "1~100"}
    assert cell.workload.dummy_params.min_size_bytes == 1024
    assert cell.workload.dummy_params.max_size_bytes == 100 * 1024


def test_system_less_spec_keeps_axis_in_coords_only():
    spec = _spec(systems=(None,), workload=None,
                 axes={"policy": ("LRU", "FIFO")})
    cells = spec.expand()
    assert [cell.coords["policy"] for cell in cells] == ["LRU", "FIFO"]
    assert all(cell.workload is None for cell in cells)
    assert all(cell.system is None for cell in cells)


# ----------------------------------------------------------------------
# apply_overrides
# ----------------------------------------------------------------------
def test_apply_overrides_plain_and_nested():
    config = WorkloadConfig(n_apps=4)
    patched = apply_overrides(config, {
        "n_apps": 8, "dummy_params.min_size_bytes": 2048,
        "testbed.wifi_latency_s": 0.004})
    assert patched.n_apps == 8
    assert patched.dummy_params.min_size_bytes == 2048
    assert patched.testbed.wifi_latency_s == 0.004
    # The original is untouched.
    assert config.n_apps == 4


def test_apply_overrides_unknown_field_rejected():
    with pytest.raises(ConfigError, match="no such field"):
        apply_overrides(WorkloadConfig(), {"napps": 8})


def test_apply_overrides_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown section"):
        apply_overrides(WorkloadConfig(), {"nosection.field": 1})


def test_apply_overrides_unknown_nested_field_rejected():
    with pytest.raises(ConfigError, match="has no field"):
        apply_overrides(WorkloadConfig(), {"dummy_params.bogus": 1})


def test_apply_overrides_section_replace_and_patch_conflict():
    params = WorkloadConfig().dummy_params
    with pytest.raises(ConfigError, match="whole section"):
        apply_overrides(WorkloadConfig(), {
            "dummy_params": params,
            "dummy_params.min_size_bytes": 1})


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_builtin_system_names_registered():
    assert set(system_names()) >= {"APE-CACHE", "APE-CACHE-LRU",
                                   "Wi-Cache", "Edge Cache"}


def test_unknown_system_name_rejected():
    with pytest.raises(ConfigError, match="unknown system 'NoSuch'"):
        resolve_system("NoSuch")


def test_resolve_system_builds_fresh_instances():
    first = resolve_system("APE-CACHE")
    second = resolve_system("APE-CACHE")
    assert first is not second
    assert first.name == "APE-CACHE"


def test_resolve_system_passthrough():
    assert resolve_system(None) is None

    class Fake:
        name = "fake"

    assert isinstance(resolve_system(Fake), Fake)


def test_resolve_runner_registered_and_dotted():
    from repro.experiments.ablations import fairness_cell
    from repro.runner.cells import workload_cell

    assert resolve_runner("workload") is workload_cell
    assert resolve_runner(
        "repro.experiments.ablations:fairness_cell") is fairness_cell


def test_resolve_runner_unknown_rejected():
    with pytest.raises(ConfigError, match="unknown runner"):
        resolve_runner("nope")
    with pytest.raises(ConfigError, match="nope"):
        resolve_runner("repro.experiments.fig14:nope")
    with pytest.raises(ConfigError):
        resolve_runner("no.such.module:thing")
