"""Unit tests for workload models and imbalance shapes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.workloads import (
    Balanced,
    PhaseSpec,
    RotatingStraggler,
    UniformWindow,
    WorkloadModel,
    get_model,
)
from repro.workloads.imbalance import Swing
from repro.workloads.splash2 import (
    SPLASH2_NAMES,
    TABLE2_IMBALANCE,
    TABLE2_PROBLEM_SIZE,
    TARGET_APPS,
)


class TestImbalanceModels:
    def test_balanced_is_flat_without_noise(self):
        rng = np.random.default_rng(0)
        durations = Balanced(sigma=0).sample(rng, 8, 1_000)
        assert (durations == 1_000).all()

    def test_uniform_window_within_bounds(self):
        rng = np.random.default_rng(0)
        durations = UniformWindow(0.5, sigma=0).sample(rng, 1000, 10_000)
        assert durations.min() >= 7_500
        assert durations.max() <= 12_500

    def test_rotating_straggler_one_heavy_thread(self):
        rng = np.random.default_rng(0)
        durations = RotatingStraggler(1.0, sigma=0).sample(rng, 16, 1_000)
        assert (durations == 2_000).sum() == 1
        assert (durations == 1_000).sum() == 15

    def test_rotating_straggler_rotates(self):
        rng = np.random.default_rng(0)
        model = RotatingStraggler(1.0, sigma=0)
        positions = {
            int(model.sample(rng, 16, 1_000).argmax()) for _ in range(50)
        }
        assert len(positions) > 5

    def test_swing_samples_two_levels(self):
        rng = np.random.default_rng(0)
        swing = Swing(low=0.5, high=4.0, p_high=0.5)
        values = {swing.sample(rng) for _ in range(100)}
        assert values == {0.5, 4.0}

    def test_invalid_parameters_rejected(self):
        with pytest.raises(WorkloadError):
            UniformWindow(3.0)
        with pytest.raises(WorkloadError):
            RotatingStraggler(-0.1)
        with pytest.raises(WorkloadError):
            Balanced(sigma=-1)
        with pytest.raises(WorkloadError):
            Swing(low=0)
        with pytest.raises(WorkloadError):
            Swing(p_high=2)

    def test_zero_mean_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(WorkloadError):
            Balanced().sample(rng, 4, 0)

    @given(
        st.integers(2, 64),
        st.integers(1_000, 10**7),
        st.floats(0.0, 1.5),
    )
    @settings(max_examples=30, deadline=None)
    def test_samples_always_positive_integers(self, threads, mean, width):
        rng = np.random.default_rng(42)
        durations = UniformWindow(width, sigma=0.05).sample(
            rng, threads, mean
        )
        assert durations.dtype == np.int64
        assert (durations >= 1).all()


class TestWorkloadModel:
    def _model(self):
        return WorkloadModel(
            name="toy",
            setup_phases=(PhaseSpec("setup", 1_000),),
            loop_phases=(
                PhaseSpec("a", 2_000),
                PhaseSpec("b", 3_000),
            ),
            iterations=4,
        )

    def test_static_barriers_in_order(self):
        assert self._model().static_barriers == ["setup", "a", "b"]

    def test_dynamic_instances(self):
        assert self._model().dynamic_instances == 1 + 4 * 2

    def test_generate_is_deterministic(self):
        model = self._model()
        first = model.generate(8, seed=7)
        second = model.generate(8, seed=7)
        for one, two in zip(first, second):
            assert one.pc == two.pc
            assert (one.durations == two.durations).all()

    def test_different_seeds_differ(self):
        model = WorkloadModel(
            name="noisy",
            loop_phases=(PhaseSpec("a", 10_000, UniformWindow(0.5)),),
            iterations=3,
        )
        first = model.generate(8, seed=1)
        second = model.generate(8, seed=2)
        assert any(
            (one.durations != two.durations).any()
            for one, two in zip(first, second)
        )

    def test_empty_model_rejected(self):
        with pytest.raises(WorkloadError):
            WorkloadModel(name="empty")

    def test_loop_without_iterations_rejected(self):
        with pytest.raises(WorkloadError):
            WorkloadModel(
                name="bad", loop_phases=(PhaseSpec("a", 1),), iterations=0
            )

    def test_invalid_phase_rejected(self):
        with pytest.raises(WorkloadError):
            PhaseSpec("bad", 0)
        with pytest.raises(WorkloadError):
            PhaseSpec("bad", 100, dirty_lines=-1)

    def test_zero_threads_rejected(self):
        with pytest.raises(WorkloadError):
            self._model().generate(0)


class TestSplash2Registry:
    def test_all_ten_applications_present(self):
        assert len(SPLASH2_NAMES) == 10
        assert set(TABLE2_IMBALANCE) == set(TABLE2_PROBLEM_SIZE)

    def test_table2_descending_order(self):
        values = list(TABLE2_IMBALANCE.values())
        assert values == sorted(values, reverse=True)

    def test_target_apps_have_10_percent_imbalance(self):
        for name in TARGET_APPS:
            assert TABLE2_IMBALANCE[name] >= 0.10
        for name in set(SPLASH2_NAMES) - set(TARGET_APPS):
            assert TABLE2_IMBALANCE[name] < 0.10

    def test_unknown_application_rejected(self):
        with pytest.raises(WorkloadError):
            get_model("raytrace")  # excluded by the paper

    def test_fft_and_cholesky_are_non_repeating(self):
        for name in ("fft", "cholesky"):
            model = get_model(name)
            assert model.iterations == 0
            assert len(model.setup_phases) == len(model.static_barriers)

    def test_fmm_has_three_main_loop_barriers(self):
        model = get_model("fmm")
        assert len(model.loop_phases) == 3
        assert model.iterations == 8  # 8 time steps (Table 2)

    def test_ocean_has_many_swinging_barriers(self):
        model = get_model("ocean")
        assert len(model.loop_phases) >= 10
        assert any(spec.swing is not None for spec in model.loop_phases)

    def test_water_steps_match_table2(self):
        assert get_model("water-nsq").iterations == 12
        assert get_model("water-sp").iterations == 12

    def test_every_model_generates(self):
        for name in SPLASH2_NAMES:
            instances = get_model(name).generate(8, seed=0)
            assert len(instances) == get_model(name).dynamic_instances
