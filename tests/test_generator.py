"""Tests for the workload runner (model x system x barrier factory)."""

import pytest

from repro.config import MachineConfig
from repro.errors import ConfigError, WorkloadError
from repro.machine import System
from repro.sync import ThriftyBarrier
from repro.workloads import (
    PhaseSpec,
    RotatingStraggler,
    WorkloadModel,
    WorkloadRunner,
)


def toy_model(iterations=4):
    return WorkloadModel(
        name="toy",
        loop_phases=(
            PhaseSpec("toy.a", 300_000, RotatingStraggler(0.5, sigma=0)),
            PhaseSpec("toy.b", 200_000, RotatingStraggler(0.5, sigma=0)),
        ),
        iterations=iterations,
        default_threads=4,
    )


def small_system():
    return System(MachineConfig(n_nodes=4))


def thrifty_factory(system, domain, n_threads, pc, trace):
    return ThriftyBarrier(system, domain, n_threads, pc, trace=trace)


class TestWorkloadRunner:
    def test_run_produces_complete_result(self):
        result = WorkloadRunner(toy_model(), system=small_system()).run()
        assert result.app == "toy"
        assert result.n_threads == 4
        assert result.execution_time_ns > 0
        assert len(result.accounts) == 4
        assert result.energy_joules > 0

    def test_trace_has_all_instances(self):
        model = toy_model(iterations=5)
        result = WorkloadRunner(model, system=small_system()).run()
        assert len(result.trace.released_instances()) == (
            model.dynamic_instances
        )

    def test_one_barrier_object_per_static_pc(self):
        runner = WorkloadRunner(toy_model(), system=small_system())
        assert set(runner.barriers) == {"toy.a", "toy.b"}

    def test_deterministic_for_fixed_seed(self):
        first = WorkloadRunner(
            toy_model(), system=small_system(), seed=11
        ).run()
        second = WorkloadRunner(
            toy_model(), system=small_system(), seed=11
        ).run()
        assert first.execution_time_ns == second.execution_time_ns
        assert first.energy_joules == pytest.approx(second.energy_joules)

    def test_thrifty_factory_changes_behaviour(self):
        baseline = WorkloadRunner(
            toy_model(), system=small_system(), seed=1
        ).run()
        thrifty = WorkloadRunner(
            toy_model(), system=small_system(), seed=1,
            barrier_factory=thrifty_factory,
        ).run()
        assert thrifty.energy_joules < baseline.energy_joules
        assert isinstance(
            list(thrifty.barriers.values())[0], ThriftyBarrier
        )

    def test_too_many_threads_rejected(self):
        with pytest.raises(WorkloadError):
            WorkloadRunner(
                toy_model(), system=small_system(), n_threads=8
            )

    @pytest.mark.parametrize("n_threads", [0, -4])
    def test_fewer_than_one_thread_rejected(self, n_threads):
        # Only None selects the model's default thread count.
        with pytest.raises(ConfigError, match="at least 1 thread"):
            WorkloadRunner(
                toy_model(), system=small_system(), n_threads=n_threads
            )

    def test_zero_threads_is_no_cell(self):
        from repro.experiments.runner import run_experiment

        with pytest.raises(ConfigError):
            run_experiment("fmm", "baseline", threads=0)

    def test_imbalance_metric_in_unit_range(self):
        result = WorkloadRunner(toy_model(), system=small_system()).run()
        assert 0.0 < result.barrier_imbalance() < 1.0

    def test_breakdowns_available(self):
        result = WorkloadRunner(toy_model(), system=small_system()).run()
        assert set(result.energy_breakdown()) == {
            "compute", "spin", "transition", "sleep",
        }
        assert result.total.time_breakdown()["compute"] > 0
