"""Unit tests for configuration objects (repro.config)."""

import pytest

from repro.config import (
    DEFAULT_SLEEP_STATES,
    SLEEP1_HALT,
    SLEEP2,
    SLEEP3,
    CacheConfig,
    MachineConfig,
    SleepStateConfig,
    ThriftyConfig,
)
from repro.errors import ConfigError


class TestSleepStates:
    def test_table3_power_savings(self):
        assert SLEEP1_HALT.power_savings == pytest.approx(0.702)
        assert SLEEP2.power_savings == pytest.approx(0.792)
        assert SLEEP3.power_savings == pytest.approx(0.978)

    def test_table3_transition_latencies_us(self):
        assert SLEEP1_HALT.transition_latency_ns == 10_000
        assert SLEEP2.transition_latency_ns == 15_000
        assert SLEEP3.transition_latency_ns == 35_000

    def test_table3_snoop_column(self):
        assert SLEEP1_HALT.snoops
        assert not SLEEP2.snoops
        assert not SLEEP3.snoops

    def test_table3_voltage_column(self):
        assert not SLEEP1_HALT.voltage_reduction
        assert not SLEEP2.voltage_reduction
        assert SLEEP3.voltage_reduction

    def test_residency_power_scales_with_tdp(self):
        assert SLEEP1_HALT.residency_power(100.0) == pytest.approx(29.8)
        assert SLEEP3.residency_power(100.0) == pytest.approx(2.2)

    def test_round_trip_is_double_one_way(self):
        assert SLEEP2.round_trip_ns == 30_000

    def test_invalid_savings_rejected(self):
        with pytest.raises(ConfigError):
            SleepStateConfig("bad", 1.5, 10, True, False)
        with pytest.raises(ConfigError):
            SleepStateConfig("bad", 0.0, 10, True, False)

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigError):
            SleepStateConfig("bad", 0.5, -1, True, False)

    def test_deeper_states_save_more_but_cost_more(self):
        savings = [s.power_savings for s in DEFAULT_SLEEP_STATES]
        latencies = [s.transition_latency_ns for s in DEFAULT_SLEEP_STATES]
        assert savings == sorted(savings)
        assert latencies == sorted(latencies)


class TestMachineConfig:
    def test_table1_defaults(self):
        config = MachineConfig()
        assert config.n_nodes == 64
        assert config.cpu_freq_mhz == 1_000
        assert config.l1.size_bytes == 16 * 1024
        assert config.l1.ways == 2
        assert config.l1.round_trip_ns == 2
        assert config.l2.size_bytes == 64 * 1024
        assert config.l2.ways == 8
        assert config.l2.round_trip_ns == 12
        assert config.memory_row_miss_ns == 60
        assert config.network.pin_to_pin_ns == 16
        assert config.network.marshal_ns == 16
        assert config.line_bytes == 64

    def test_cache_geometry_derived(self):
        config = MachineConfig()
        assert config.l1.n_lines == 256
        assert config.l1.n_sets == 128
        assert config.l2.n_lines == 1024
        assert config.l2.n_sets == 128

    def test_non_power_of_two_nodes_rejected(self):
        with pytest.raises(ConfigError):
            MachineConfig(n_nodes=48)

    def test_mismatched_line_sizes_rejected(self):
        bad_l2 = CacheConfig(
            size_bytes=64 * 1024, line_bytes=32, ways=8,
            round_trip_ns=12, freq_mhz=500,
        )
        with pytest.raises(ConfigError):
            MachineConfig(l2=bad_l2)

    def test_indivisible_cache_rejected(self):
        with pytest.raises(ConfigError):
            CacheConfig(
                size_bytes=1000, line_bytes=64, ways=3,
                round_trip_ns=1, freq_mhz=1000,
            )


class TestThriftyConfig:
    def test_defaults_match_paper(self):
        config = ThriftyConfig()
        assert config.overprediction_threshold == pytest.approx(0.10)
        assert config.use_internal_wakeup and config.use_external_wakeup
        assert config.conditional_sleep
        assert len(config.sleep_states) == 3

    def test_requires_some_wakeup_mechanism(self):
        with pytest.raises(ConfigError):
            ThriftyConfig(use_internal_wakeup=False, use_external_wakeup=False)

    def test_requires_states(self):
        with pytest.raises(ConfigError):
            ThriftyConfig(sleep_states=())

    def test_states_must_be_latency_ordered(self):
        with pytest.raises(ConfigError):
            ThriftyConfig(sleep_states=(SLEEP3, SLEEP1_HALT))

    def test_halt_only_configuration(self):
        config = ThriftyConfig(sleep_states=(SLEEP1_HALT,))
        assert config.sleep_states == (SLEEP1_HALT,)
