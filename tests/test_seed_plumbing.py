"""Seed plumbing: every entry point accepts and forwards ``seed``.

Two same-seed runs of any entry point must be identical; two
different-seed runs must differ. This pins the audit of
``runner.py``/``sweeps.py``/``cli.py`` and the new engine paths — a
dropped ``seed`` anywhere in the chain shows up here as a same-seed
mismatch or a different-seed coincidence.
"""

import pytest

from repro.experiments.figures import figure3_rows
from repro.experiments.parallel import ExperimentEngine
from repro.experiments.runner import (
    DEFAULT_SEED,
    run_app,
    run_experiment,
    run_matrix,
)
from repro.experiments.sweeps import latency_scaling, thread_scaling
from repro.experiments.tables import table2_rows

APP = "fmm"
THREADS = 8


class TestRunnerSeeds:
    def test_same_seed_runs_identical(self):
        one = run_experiment(APP, "thrifty", threads=THREADS, seed=7)
        two = run_experiment(APP, "thrifty", threads=THREADS, seed=7)
        assert one.identical(two)

    def test_different_seeds_differ(self):
        one = run_experiment(APP, "baseline", threads=THREADS, seed=1)
        two = run_experiment(APP, "baseline", threads=THREADS, seed=2)
        assert not one.identical(two)

    def test_default_seed_is_explicit_default(self):
        defaulted = run_experiment(APP, "baseline", threads=THREADS)
        explicit = run_experiment(
            APP, "baseline", threads=THREADS, seed=DEFAULT_SEED
        )
        assert defaulted.identical(explicit)

    def test_run_app_forwards_seed_to_every_config(self):
        configs = ("baseline", "thrifty", "ideal")
        by_app = run_app(APP, threads=THREADS, seed=5, configs=configs)
        for config in configs:
            direct = run_experiment(APP, config, threads=THREADS, seed=5)
            assert by_app[config].identical(direct)


class TestEngineSeeds:
    def test_engine_matrix_forwards_seed(self):
        engine = ExperimentEngine(workers=2, strict=True)
        via_engine = engine.run_matrix(
            (APP,), configs=("baseline",), threads=THREADS, seed=9
        )
        direct = run_experiment(APP, "baseline", threads=THREADS, seed=9)
        assert via_engine[APP]["baseline"].identical(direct)

    def test_run_matrix_seed_reaches_workers(self):
        serial = run_matrix(
            apps=(APP,), configs=("baseline",), threads=THREADS,
            seed=3, workers=1,
        )
        parallel = run_matrix(
            apps=(APP,), configs=("baseline",), threads=THREADS,
            seed=3, workers=2,
        )
        assert serial[APP]["baseline"].identical(parallel[APP]["baseline"])


class TestSweepSeeds:
    def test_thread_scaling_seeded(self):
        kwargs = dict(thread_counts=(4, 8))
        assert thread_scaling(APP, seed=1, **kwargs) == thread_scaling(
            APP, seed=1, **kwargs
        )
        assert thread_scaling(APP, seed=1, **kwargs) != thread_scaling(
            APP, seed=2, **kwargs
        )

    def test_latency_scaling_seeded(self):
        kwargs = dict(factors=(0.5,), threads=THREADS)
        assert latency_scaling(APP, seed=1, **kwargs) == latency_scaling(
            APP, seed=1, **kwargs
        )
        assert latency_scaling(APP, seed=1, **kwargs) != latency_scaling(
            APP, seed=2, **kwargs
        )


class TestReportSeeds:
    def test_table2_seeded(self):
        kwargs = dict(threads=THREADS, apps=(APP,))
        assert table2_rows(seed=1, **kwargs) == table2_rows(seed=1, **kwargs)
        assert table2_rows(seed=1, **kwargs) != table2_rows(seed=2, **kwargs)

    def test_figure3_seeded(self):
        assert figure3_rows(threads=THREADS, seed=1) == figure3_rows(
            threads=THREADS, seed=1
        )
        assert figure3_rows(threads=THREADS, seed=1) != figure3_rows(
            threads=THREADS, seed=2
        )


class TestCliSeeds:
    @pytest.mark.parametrize("seed", [1, 42])
    def test_cli_forwards_seed_workers_and_cache(self, monkeypatch, seed,
                                                 tmp_path, capsys):
        from repro import cli
        from repro.experiments import runner

        captured = {}
        real_run_matrix = runner.run_matrix

        def spy(**kwargs):
            captured.update(kwargs)
            return real_run_matrix(**kwargs)

        monkeypatch.setattr(runner, "run_matrix", spy)
        assert cli.main([
            "headline", "--apps", APP, "--threads", str(THREADS),
            "--seed", str(seed), "--workers", "2",
            "--cache-dir", str(tmp_path),
        ]) == 0
        assert captured["seed"] == seed
        assert captured["workers"] == 2
        assert captured["cache"] == str(tmp_path)
        capsys.readouterr()

    def test_cli_no_cache_disables_cache(self, monkeypatch, capsys):
        from repro import cli
        from repro.experiments import runner

        captured = {}
        real_run_matrix = runner.run_matrix

        def spy(**kwargs):
            captured.update(kwargs)
            return real_run_matrix(**kwargs)

        monkeypatch.setattr(runner, "run_matrix", spy)
        assert cli.main([
            "headline", "--apps", APP, "--threads", str(THREADS),
            "--no-cache",
        ]) == 0
        assert captured["cache"] is None
        assert captured["seed"] == DEFAULT_SEED
        capsys.readouterr()
