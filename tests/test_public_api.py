"""Public-API consistency checks."""

import importlib

import pytest

import repro

SUBPACKAGES = (
    "repro",
    "repro.sim",
    "repro.energy",
    "repro.interconnect",
    "repro.coherence",
    "repro.machine",
    "repro.predict",
    "repro.sync",
    "repro.mp",
    "repro.workloads",
    "repro.workloads.kernels",
    "repro.experiments",
    "repro.telemetry",
    "repro.faults",
    "repro.check",
    "repro.serve",
)


def test_lazy_top_level_attributes():
    assert callable(repro.run_experiment)
    assert callable(repro.run_matrix)
    assert repro.MachineConfig().n_nodes == 64
    assert "baseline" in repro.CONFIG_NAMES


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError):
        _ = repro.definitely_not_a_thing


def test_dir_lists_public_names():
    names = dir(repro)
    assert "run_experiment" in names
    assert "__version__" in names


@pytest.mark.parametrize("module_name", SUBPACKAGES)
def test_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", ()):
        assert hasattr(module, name), "{}.{} missing".format(
            module_name, name
        )


def test_version_is_semver_ish():
    major, minor, patch = repro.__version__.split(".")
    assert major.isdigit() and minor.isdigit() and patch.isdigit()


def test_sim_determinism_across_identical_runs():
    from repro.experiments.runner import run_experiment

    first = run_experiment("radiosity", "thrifty", threads=8, seed=5)
    second = run_experiment("radiosity", "thrifty", threads=8, seed=5)
    assert first.execution_time_ns == second.execution_time_ns
    assert first.energy_joules == pytest.approx(second.energy_joules)
    assert first.thrifty_stats == second.thrifty_stats
