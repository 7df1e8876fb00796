"""Determinism suite for the parallel experiment engine.

The simulator is bit-exact, so serial and parallel execution of the
same matrix must produce field-identical :class:`ExperimentResult`\\ s
— including thrifty stats, oracle metadata, and the energy/time
breakdowns — in identical order. These tests pin that contract for
two applications and two seeds, plus the engine's ordering and
degradation behavior.
"""

import os
import time

import pytest

from repro.errors import ConfigError, ExperimentError
from repro.experiments.parallel import (
    CellFailure,
    ExperimentCell,
    ExperimentEngine,
    _fork_context,
)
from repro.experiments.pool import WorkerPool
from repro.experiments.runner import (
    ExperimentResult,
    _shared_baseline,
    _simulation_cost,
    run_app,
    run_experiment,
    run_matrix,
)
from repro.faults.plan import FaultPlan

APPS = ("fmm", "radix")
SEEDS = (1, 2)
CONFIGS = ("baseline", "thrifty", "ideal")  # live, thrifty-stats, derived
THREADS = 8


def assert_results_identical(a, b):
    """Field-for-field comparison, with a readable diff on mismatch."""
    assert isinstance(a, ExperimentResult), a
    assert isinstance(b, ExperimentResult), b
    assert a.app == b.app and a.config == b.config
    assert a.n_threads == b.n_threads
    assert a.execution_time_ns == b.execution_time_ns
    assert a.barrier_imbalance == b.barrier_imbalance
    assert a.energy_breakdown() == b.energy_breakdown()
    assert a.time_breakdown() == b.time_breakdown()
    assert a.thrifty_stats == b.thrifty_stats
    assert a.oracle_meta == b.oracle_meta
    assert a.identical(b)


def assert_matrices_identical(serial, parallel):
    assert list(serial) == list(parallel)  # same apps, same order
    for app in serial:
        assert list(serial[app]) == list(parallel[app])
        for config in serial[app]:
            assert_results_identical(serial[app][config], parallel[app][config])


class TestDeterminism:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_parallel_equals_serial(self, seed):
        serial = run_matrix(
            apps=APPS, configs=CONFIGS, threads=THREADS, seed=seed,
            workers=1,
        )
        parallel = run_matrix(
            apps=APPS, configs=CONFIGS, threads=THREADS, seed=seed,
            workers=4,
        )
        assert_matrices_identical(serial, parallel)

    def test_seeds_actually_differ(self):
        # Guard against the suite above passing vacuously.
        one = run_matrix(
            apps=("fmm",), configs=("baseline",), threads=THREADS, seed=1
        )
        two = run_matrix(
            apps=("fmm",), configs=("baseline",), threads=THREADS, seed=2
        )
        assert not one["fmm"]["baseline"].identical(two["fmm"]["baseline"])

    def test_engine_serial_path_matches_legacy(self):
        # workers=1 through the engine (one run_experiment call per
        # cell, in units) must still equal the classic run_app loop.
        engine = ExperimentEngine(workers=1, strict=True)
        via_engine = engine.run_matrix(
            APPS, configs=CONFIGS, threads=THREADS, seed=1
        )
        legacy = {
            app: run_app(app, threads=THREADS, seed=1, configs=CONFIGS)
            for app in APPS
        }
        assert_matrices_identical(legacy, via_engine)


class TestBaselineSharing:
    """A Baseline simulates once per unit: its Oracle-Halt and Ideal
    cells replay that run on every engine path."""

    @pytest.mark.parametrize("workers", (1, 2))
    def test_five_configs_cost_three_simulations(
        self, workers, count_simulations
    ):
        reference = run_app("fmm", threads=THREADS)
        assert count_simulations() == 3
        engine = ExperimentEngine(workers=workers, strict=True)
        matrix = engine.run_matrix(("fmm",), threads=THREADS)
        assert count_simulations() == 3 + 3
        assert engine.stats.executed == 5
        assert_matrices_identical({"fmm": reference}, matrix)

    @pytest.mark.parametrize("workers", (1, 2))
    def test_cached_baseline_leaves_derived_cells_one_simulation(
        self, workers, count_simulations, tmp_path
    ):
        engine = ExperimentEngine(
            workers=workers, cache=tmp_path / "cache", strict=True
        )
        engine.run_cells(
            [ExperimentCell.make("fmm", "baseline", threads=THREADS)]
        )
        assert count_simulations() == 1
        matrix = engine.run_matrix(
            ("fmm",), configs=("baseline", "oracle-halt", "ideal"),
            threads=THREADS,
        )
        assert count_simulations() == 2
        assert engine.stats.cache_hits == 1
        reference = run_app(
            "fmm", threads=THREADS,
            configs=("baseline", "oracle-halt", "ideal"),
        )
        assert_matrices_identical({"fmm": reference}, matrix)

    def test_traced_derived_cell_simulates_its_own_baseline(
        self, count_simulations
    ):
        cells = [
            ExperimentCell.make("fmm", "baseline", threads=THREADS),
            ExperimentCell.make(
                "fmm", "ideal", threads=THREADS, telemetry=True
            ),
            ExperimentCell.make("fmm", "oracle-halt", threads=THREADS),
        ]
        out = ExperimentEngine(workers=1, strict=True).run_cells(cells)
        # The untraced pair shares one run; the traced cell needs its
        # own, since its result carries that simulation's events.
        assert count_simulations() == 2
        traced = run_experiment("fmm", "ideal", threads=THREADS,
                                telemetry=True)
        assert out[1].telemetry is not None
        assert_results_identical(traced, out[1])

    def test_traced_or_faulted_cells_never_read_the_slot(
        self, count_simulations
    ):
        stall = FaultPlan(seed=3, stall_probability=0.5)
        with _shared_baseline():
            run_experiment("fmm", "baseline", threads=THREADS)
            traced = run_experiment(
                "fmm", "ideal", threads=THREADS, telemetry=True
            )
            faulted = run_experiment(
                "fmm", "oracle-halt", threads=THREADS, fault_plan=stall
            )
            shared = run_experiment("fmm", "oracle-halt", threads=THREADS)
        assert count_simulations() == 3
        assert_results_identical(
            run_experiment("fmm", "ideal", threads=THREADS, telemetry=True),
            traced,
        )
        assert_results_identical(
            run_experiment(
                "fmm", "oracle-halt", threads=THREADS, fault_plan=stall
            ),
            faulted,
        )
        assert not faulted.identical(shared)  # the plan does perturb
        assert_results_identical(
            run_experiment("fmm", "oracle-halt", threads=THREADS), shared
        )


class TestOrdering:
    def test_pool_dispatches_longest_simulation_first(self, monkeypatch):
        # Ocean's 480 barrier instances outweigh fmm's and radix's 24,
        # so its unit goes out first; equal costs keep submission order.
        dispatched = []
        dispatch = WorkerPool.dispatch

        def recording(self, pid, unit):
            accepted = dispatch(self, pid, unit)
            if accepted:
                dispatched.append([cell.app for _, cell in unit])
            return accepted

        monkeypatch.setattr(WorkerPool, "dispatch", recording)
        cells = [
            ExperimentCell.make(app, config, threads=2)
            for app, config in (
                ("fmm", "baseline"), ("radix", "thrifty"),
                ("ocean", "baseline"), ("fmm", "ideal"), ("ocean", "ideal"),
            )
        ]
        out = ExperimentEngine(workers=2, strict=True).run_cells(cells)
        if _fork_context() is not None:
            assert dispatched == [
                ["ocean", "ocean"], ["fmm", "fmm"], ["radix"],
            ]
        serial = ExperimentEngine(workers=1, strict=True).run_cells(cells)
        for got, want in zip(out, serial):
            assert_results_identical(want, got)
        assert _simulation_cost("no-such-app", 2) == 0

    def test_results_in_submission_order_despite_completion_order(self):
        # Later cells finish first; results must still land by index.
        def task(cell):
            time.sleep(cell["delay"])
            return cell["name"]

        cells = [
            {"name": "slow", "delay": 0.4},
            {"name": "medium", "delay": 0.2},
            {"name": "fast", "delay": 0.0},
        ]
        engine = ExperimentEngine(workers=3, strict=True)
        assert engine.run_cells(cells, task_fn=task) == [
            "slow", "medium", "fast"
        ]

    def test_units_share_persistent_workers(self):
        # One pool per run: ten units go to two long-lived workers
        # instead of one forked process each.
        engine = ExperimentEngine(workers=2)
        pids = engine.run_cells(range(10), task_fn=lambda _: os.getpid())
        assert len(set(pids)) <= 2
        assert os.getpid() not in pids

    def test_many_cells_few_workers(self):
        engine = ExperimentEngine(workers=2)
        payloads = list(range(20))
        out = engine.run_cells(payloads, task_fn=lambda n: n * n)
        assert out == [n * n for n in payloads]
        assert engine.stats.executed == 20


class TestDegradation:
    def test_serial_fallback_without_fork(self, monkeypatch):
        monkeypatch.setattr(
            "repro.experiments.parallel._fork_context", lambda: None
        )
        engine = ExperimentEngine(workers=4, strict=True)
        assert engine.run_cells([1, 2, 3], task_fn=lambda n: -n) == [-1, -2, -3]

    def test_fork_context_available_on_linux(self):
        assert _fork_context() is not None

    def test_non_strict_serial_matrix_returns_failures_in_place(self):
        # workers=1 without a cache runs on the engine like every other
        # setting, so strict=False keeps a failing cell in place and
        # the strict default raises ExperimentError.
        matrix = run_matrix(
            apps=("nosuchapp",), configs=("baseline",), threads=THREADS,
            workers=1, strict=False,
        )
        failure = matrix["nosuchapp"]["baseline"]
        assert isinstance(failure, CellFailure)
        assert failure.error_type == "WorkloadError"
        with pytest.raises(ExperimentError):
            run_matrix(
                apps=("nosuchapp",), configs=("baseline",), threads=THREADS,
            )

    def test_single_cell_stays_in_process(self):
        # One pending cell never pays process overhead.
        seen = []
        engine = ExperimentEngine(workers=4, strict=True)
        engine.run_cells([7], task_fn=lambda n: seen.append(n) or n)
        assert seen == [7]  # side effect visible => ran in this process


class TestValidation:
    def test_bad_workers_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentEngine(workers=0)

    def test_bad_timeout_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentEngine(timeout=-1)

    def test_bad_retries_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentEngine(retries=-1)

    def test_unknown_config_rejected_before_any_run(self):
        engine = ExperimentEngine(workers=1)
        with pytest.raises(ConfigError):
            engine.run_matrix(("fmm",), configs=("warp-speed",))
        assert engine.stats.submitted == 0

    def test_overrides_are_canonically_sorted(self):
        a = ExperimentCell.make(
            "fmm", "thrifty", overprediction_threshold=0.2,
            underprediction_factor=3.0,
        )
        b = ExperimentCell.make(
            "fmm", "thrifty", underprediction_factor=3.0,
            overprediction_threshold=0.2,
        )
        assert a == b
        assert a.key() == b.key()
