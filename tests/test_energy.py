"""Unit tests for the energy subsystem (repro.energy)."""

import pytest

from repro.config import DEFAULT_SLEEP_STATES, SLEEP1_HALT, SLEEP2, SLEEP3
from repro.energy import (
    ActivityProfile,
    Category,
    EnergyAccount,
    WattchModel,
    calibrate_tdp_max,
    ramp_energy,
    select_sleep_state,
)
from repro.errors import ConfigError, SimulationError


class TestWattchModel:
    def test_power_is_positive_and_bounded_by_worst_case(self):
        model = WattchModel()
        typical = model.power(ActivityProfile.typical())
        worst = model.power(ActivityProfile.worst_case())
        assert 0 < typical < worst

    def test_power_scales_linearly_with_frequency(self):
        slow = WattchModel(cpu_freq_mhz=500)
        fast = WattchModel(cpu_freq_mhz=1000)
        profile = ActivityProfile.typical()
        assert fast.power(profile) == pytest.approx(2 * slow.power(profile))

    def test_power_scales_quadratically_with_voltage(self):
        low = WattchModel(supply_voltage=1.0)
        high = WattchModel(supply_voltage=2.0)
        profile = ActivityProfile.typical()
        assert high.power(profile) == pytest.approx(4 * low.power(profile))

    def test_idle_residual_keeps_floor_power(self):
        model = WattchModel()
        silent = ActivityProfile(
            **{name: 0.0 for name in ActivityProfile.typical().as_dict()}
        )
        worst = model.power(ActivityProfile.worst_case())
        assert model.power(silent) == pytest.approx(0.1 * worst, rel=1e-6)

    def test_spinloop_power_near_85_percent_of_typical(self):
        # Paper Section 4.3: spinloop draws ~85% of regular computation.
        model = WattchModel()
        ratio = model.power(ActivityProfile.spinloop()) / model.power(
            ActivityProfile.typical()
        )
        assert 0.75 <= ratio <= 0.95

    def test_breakdown_sums_to_total(self):
        model = WattchModel()
        profile = ActivityProfile.typical()
        assert sum(model.breakdown(profile).values()) == pytest.approx(
            model.power(profile)
        )

    def test_clock_tree_dominates_breakdown(self):
        model = WattchModel()
        breakdown = model.breakdown(ActivityProfile.worst_case())
        assert breakdown["clock_tree"] == max(breakdown.values())

    def test_activity_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            ActivityProfile(int_alus=1.5)

    def test_invalid_model_parameters_rejected(self):
        with pytest.raises(ConfigError):
            WattchModel(cpu_freq_mhz=0)
        with pytest.raises(ConfigError):
            WattchModel(supply_voltage=-1)

    def test_unknown_unit_rejected(self):
        with pytest.raises(ConfigError):
            WattchModel().unit_power("flux_capacitor", 0.5)


class TestTdpCalibration:
    def test_tdp_exceeds_typical_power(self):
        model = WattchModel()
        result = calibrate_tdp_max(model)
        assert result.tdp_max_watts > model.power(ActivityProfile.typical())

    def test_tdp_at_most_ceiling(self):
        model = WattchModel()
        result = calibrate_tdp_max(model)
        assert result.tdp_max_watts <= model.power(
            ActivityProfile.worst_case()
        )

    def test_saturating_mix_wins(self):
        result = calibrate_tdp_max()
        assert result.best_mix["int"] > 0
        assert result.best_mix["fp"] > 0
        assert result.best_mix["mem"] > 0

    def test_default_model_used_when_omitted(self):
        assert calibrate_tdp_max().tdp_max_watts > 0

    def test_sleep_state_powers_follow_table3_ratios(self):
        tdp = calibrate_tdp_max().tdp_max_watts
        p1 = SLEEP1_HALT.residency_power(tdp)
        p2 = SLEEP2.residency_power(tdp)
        p3 = SLEEP3.residency_power(tdp)
        assert p1 > p2 > p3 > 0
        assert p1 / tdp == pytest.approx(1 - 0.702)
        assert p3 / tdp == pytest.approx(1 - 0.978)


class TestSleepSelection:
    def test_no_state_fits_tiny_slack(self):
        assert select_sleep_state(DEFAULT_SLEEP_STATES, 1_000) is None

    def test_halt_fits_moderate_slack(self):
        # 25 us of slack covers Halt's 20 us round trip only.
        state = select_sleep_state(DEFAULT_SLEEP_STATES, 25_000)
        assert state is SLEEP1_HALT

    def test_deepest_state_wins_large_slack(self):
        state = select_sleep_state(DEFAULT_SLEEP_STATES, 1_000_000)
        assert state is SLEEP3

    def test_flush_cost_charged_only_to_non_snooping_states(self):
        # 40 us slack: Sleep2 round trip is 30 us, but a 15 us flush
        # pushes it out; Halt (snooping) is unaffected by the flush.
        state = select_sleep_state(
            DEFAULT_SLEEP_STATES, 40_000, flush_ns=15_000
        )
        assert state is SLEEP1_HALT

    def test_exact_fit_is_allowed(self):
        state = select_sleep_state((SLEEP1_HALT,), SLEEP1_HALT.round_trip_ns)
        assert state is SLEEP1_HALT

    def test_unconditional_mode_returns_shallowest(self):
        state = select_sleep_state(DEFAULT_SLEEP_STATES, 0, conditional=False)
        assert state is SLEEP1_HALT

    def test_empty_states_rejected(self):
        with pytest.raises(ConfigError):
            select_sleep_state((), 1_000_000)


class TestEnergyHelpers:
    def test_ramp_energy_is_trapezoid(self):
        # 100 W down to 20 W over 1 us -> 60 W average -> 60 uJ.
        assert ramp_energy(100.0, 20.0, 1_000) == pytest.approx(60e-6)

    def test_ramp_energy_zero_duration(self):
        assert ramp_energy(100.0, 20.0, 0) == 0.0

    def test_ramp_energy_negative_duration_rejected(self):
        with pytest.raises(ConfigError):
            ramp_energy(1.0, 1.0, -5)


class TestEnergyAccount:
    def test_constant_power_segment(self):
        account = EnergyAccount()
        account.add(Category.COMPUTE, 1_000_000, power_watts=50.0)
        assert account.energy_joules(Category.COMPUTE) == pytest.approx(50e-3)
        assert account.time_ns(Category.COMPUTE) == 1_000_000

    def test_precomputed_energy_segment(self):
        account = EnergyAccount()
        account.add(Category.TRANSITION, 10_000, energy_joules=1e-4)
        assert account.energy_joules(Category.TRANSITION) == pytest.approx(1e-4)

    def test_totals_sum_categories(self):
        account = EnergyAccount()
        account.add(Category.COMPUTE, 100, power_watts=1.0)
        account.add(Category.SPIN, 200, power_watts=1.0)
        assert account.time_ns() == 300
        assert account.energy_joules() == pytest.approx(300e-9)

    def test_merge_accumulates(self):
        left, right = EnergyAccount(), EnergyAccount()
        left.add(Category.SLEEP, 10, power_watts=2.0)
        right.add(Category.SLEEP, 30, power_watts=2.0)
        left.merge(right)
        assert left.time_ns(Category.SLEEP) == 40

    def test_breakdowns_cover_all_categories(self):
        account = EnergyAccount()
        assert set(account.energy_breakdown()) == {
            "compute", "spin", "transition", "sleep",
        }
        assert set(account.time_breakdown()) == set(
            account.energy_breakdown()
        )

    def test_requires_exactly_one_energy_spec(self):
        account = EnergyAccount()
        with pytest.raises(SimulationError):
            account.add(Category.SPIN, 10)
        with pytest.raises(SimulationError):
            account.add(Category.SPIN, 10, power_watts=1.0, energy_joules=1.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(SimulationError):
            EnergyAccount().add(Category.SPIN, -1, power_watts=1.0)

    def test_negative_energy_rejected(self):
        with pytest.raises(SimulationError):
            EnergyAccount().add(Category.SPIN, 1, energy_joules=-1.0)
