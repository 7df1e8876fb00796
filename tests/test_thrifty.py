"""Tests for the thrifty barrier (the paper's core mechanism)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.config import (
    DEFAULT_SLEEP_STATES,
    SLEEP1_HALT,
    SLEEP3,
    SleepStateConfig,
    ThriftyConfig,
)
from repro.energy.accounting import Category
from repro.energy.states import select_sleep_state
from repro.sync import ConventionalBarrier, ThriftyBarrier

from tests.conftest import (
    make_domain,
    make_system,
    run_phases,
    staggered_schedules,
)

# One thread computes 200 us, the rest arrive immediately: each instance
# has a large (~600 us with step 200 us), perfectly repeatable stall.
BIG_IMBALANCE = staggered_schedules(4, 6, base_ns=50_000, step_ns=200_000)


def build_thrifty(config=None, n_nodes=4, n_threads=None):
    system = make_system(n_nodes=n_nodes)
    n_threads = n_threads or n_nodes
    domain = make_domain(system, n_threads)
    barrier = ThriftyBarrier(
        system, domain, n_threads, pc="b0", config=config
    )
    return system, domain, barrier


def build_baseline(n_nodes=4, n_threads=None):
    system = make_system(n_nodes=n_nodes)
    n_threads = n_threads or n_nodes
    domain = make_domain(system, n_threads)
    barrier = ConventionalBarrier(system, domain, n_threads, pc="b0")
    return system, domain, barrier


class TestWarmup:
    def test_first_instance_never_sleeps(self):
        system, _, barrier = build_thrifty()
        run_phases(system, barrier, staggered_schedules(4, 1, 0, 500_000))
        assert barrier.stats.sleeps == 0
        assert barrier.stats.cold_spins == 3

    def test_second_instance_sleeps(self):
        system, _, barrier = build_thrifty()
        run_phases(system, barrier, staggered_schedules(4, 2, 0, 500_000))
        assert barrier.stats.sleeps > 0


class TestSleepBehaviour:
    def test_stable_imbalance_sleeps_every_warm_instance(self):
        system, _, barrier = build_thrifty()
        run_phases(system, barrier, BIG_IMBALANCE)
        # 6 instances, 3 early threads each; instance 1 is warm-up.
        assert barrier.stats.sleeps == 5 * 3

    def test_deepest_state_chosen_for_large_stall(self):
        system, _, barrier = build_thrifty()
        run_phases(system, barrier, BIG_IMBALANCE)
        assert barrier.stats.sleeps_by_state.get(SLEEP3.name, 0) > 0

    def test_small_stall_falls_back_to_spin(self):
        # 5 us stalls cannot amortize even Halt's 20 us round trip.
        system, _, barrier = build_thrifty()
        run_phases(system, barrier, staggered_schedules(4, 4, 10_000, 5_000))
        assert barrier.stats.sleeps == 0
        assert barrier.stats.spin_fallbacks > 0

    def test_halt_only_configuration_uses_halt(self):
        config = ThriftyConfig(sleep_states=(SLEEP1_HALT,))
        system, _, barrier = build_thrifty(config=config)
        run_phases(system, barrier, BIG_IMBALANCE)
        assert set(barrier.stats.sleeps_by_state) == {SLEEP1_HALT.name}

    def test_unconditional_sleep_strawman(self):
        config = ThriftyConfig(
            sleep_states=DEFAULT_SLEEP_STATES, conditional_sleep=False
        )
        system, _, barrier = build_thrifty(config=config)
        run_phases(system, barrier, staggered_schedules(4, 4, 10_000, 5_000))
        # Sleeps even though the stall cannot amortize the transition.
        assert barrier.stats.sleeps > 0

    def test_semantics_no_departure_before_last_arrival(self):
        system, _, barrier = build_thrifty()
        trace = run_phases(system, barrier, BIG_IMBALANCE)
        for record in trace.released_instances():
            last_arrival = max(record.arrivals.values())
            for departure in record.departures.values():
                assert departure >= last_arrival


class TestEnergyAndTime:
    def test_thrifty_saves_energy_on_imbalanced_workload(self):
        base_system, _, base_barrier = build_baseline()
        run_phases(base_system, base_barrier, BIG_IMBALANCE)
        thrifty_system, _, thrifty_barrier = build_thrifty()
        run_phases(thrifty_system, thrifty_barrier, BIG_IMBALANCE)
        base_joules = base_system.total_account().energy_joules()
        thrifty_joules = thrifty_system.total_account().energy_joules()
        assert thrifty_joules < 0.92 * base_joules

    def test_performance_degradation_is_bounded(self):
        base_system, _, base_barrier = build_baseline()
        run_phases(base_system, base_barrier, BIG_IMBALANCE)
        thrifty_system, _, thrifty_barrier = build_thrifty()
        run_phases(thrifty_system, thrifty_barrier, BIG_IMBALANCE)
        slowdown = (
            thrifty_system.execution_time_ns
            / base_system.execution_time_ns
        )
        assert slowdown < 1.05

    def test_sleep_time_replaces_spin_time(self):
        system, _, barrier = build_thrifty()
        run_phases(system, barrier, BIG_IMBALANCE)
        total = system.total_account()
        assert total.time_ns(Category.SLEEP) > total.time_ns(Category.SPIN)
        assert total.time_ns(Category.TRANSITION) > 0

    def test_balanced_workload_unchanged(self):
        balanced = staggered_schedules(4, 4, 100_000, 0)
        system, _, barrier = build_thrifty()
        run_phases(system, barrier, balanced)
        assert barrier.stats.sleeps == 0


class TestHybridWakeup:
    def test_accurate_prediction_wakes_by_timer(self):
        system, _, barrier = build_thrifty()
        run_phases(system, barrier, BIG_IMBALANCE)
        assert barrier.stats.timer_wakes > barrier.stats.invalidation_wakes

    def test_external_only_wakes_by_invalidation(self):
        config = ThriftyConfig(use_internal_wakeup=False)
        system, _, barrier = build_thrifty(config=config)
        run_phases(system, barrier, BIG_IMBALANCE)
        assert barrier.stats.timer_wakes == 0
        assert barrier.stats.invalidation_wakes > 0

    def test_external_only_still_correct(self):
        config = ThriftyConfig(use_internal_wakeup=False)
        system, _, barrier = build_thrifty(config=config)
        trace = run_phases(system, barrier, BIG_IMBALANCE)
        assert len(trace.released_instances()) == 6

    def test_internal_only_survives_overprediction(self):
        # Shrinking intervals: last-value overpredicts; without the
        # external bound the thread oversleeps but the run completes.
        config = ThriftyConfig(use_external_wakeup=False)
        shrinking = [
            [800_000, 400_000, 200_000, 100_000] for _ in range(3)
        ] + [[1_600_000, 800_000, 400_000, 200_000]]
        system, _, barrier = build_thrifty(config=config)
        trace = run_phases(system, barrier, shrinking)
        assert len(trace.released_instances()) == 4

    def test_external_bound_caps_lateness(self):
        # Same shrinking workload with hybrid wake-up: wake-up happens
        # within one transition latency of the release.
        shrinking = [
            [800_000, 400_000, 200_000, 100_000] for _ in range(3)
        ] + [[1_600_000, 800_000, 400_000, 200_000]]
        system, _, barrier = build_thrifty()
        trace = run_phases(system, barrier, shrinking)
        for record in trace.released_instances():
            for sleep_record in record.sleeps.values():
                assert sleep_record.penalty_ns <= (
                    SLEEP3.transition_latency_ns + 10_000
                )


class TestOverpredictionCutoff:
    def test_swinging_intervals_trip_cutoff(self):
        # Ocean-style: the interval alternates 3 ms / 100 us, so the
        # last-value prediction is wrong every time; the penalty on the
        # short instances exceeds 10% of BIT and prediction is disabled.
        swing = [
            [3_000_000 if i % 2 == 0 else 20_000 for i in range(8)]
            for _ in range(3)
        ]
        swing.append(
            [3_000_000 + 600_000 if i % 2 == 0 else 100_000 for i in range(8)]
        )
        system, _, barrier = build_thrifty()
        run_phases(system, barrier, swing)
        assert barrier.stats.cutoff_disables > 0
        assert barrier.stats.disabled_spins > 0

    def test_stable_intervals_never_trip_cutoff(self):
        system, _, barrier = build_thrifty()
        run_phases(system, barrier, BIG_IMBALANCE)
        assert barrier.stats.cutoff_disables == 0


class TestUnderpredictionFilter:
    def test_inordinate_interval_not_trained(self):
        # One instance is 40x longer (a "page fault"); the predictor
        # must keep the old, shorter value.
        phases = [500_000, 500_000, 20_000_000, 500_000]
        schedules = [list(phases) for _ in range(3)]
        schedules.append([p + 200_000 for p in phases])
        system, domain, barrier = build_thrifty()
        run_phases(system, barrier, schedules)
        assert barrier.stats.filtered_updates >= 1
        # Prediction after the spike is still near the normal interval.
        assert domain.predictor.peek("b0") < 5_000_000

    def test_filter_disabled_by_large_factor(self):
        config = ThriftyConfig(underprediction_factor=1_000.0)
        phases = [500_000, 500_000, 20_000_000, 500_000]
        schedules = [list(phases) for _ in range(3)]
        schedules.append([p + 200_000 for p in phases])
        system, domain, barrier = build_thrifty(config=config)
        run_phases(system, barrier, schedules)
        assert barrier.stats.filtered_updates == 0


class TestMixedBarriers:
    def test_thrifty_and_conventional_coexist(self):
        # Section 2: thrifty and conventional barriers may co-exist in
        # the same binary and share the timing domain.
        system = make_system()
        domain = make_domain(system)
        thrifty = ThriftyBarrier(system, domain, 4, pc="thrifty")
        conventional = ConventionalBarrier(system, domain, 4, pc="conv")

        def program(node):
            for _ in range(4):
                yield from node.cpu.compute(
                    100_000 * (node.node_id + 1)
                )
                yield from thrifty.wait(node)
                yield from node.cpu.compute(50_000)
                yield from conventional.wait(node)

        system.run_threads(program)
        assert len(thrifty.trace.released_instances()) == 4
        assert len(conventional.trace.released_instances()) == 4
        assert thrifty.stats.sleeps > 0

    def test_multiple_thrifty_barriers_share_predictor(self):
        system = make_system()
        domain = make_domain(system)
        trace = None
        b1 = ThriftyBarrier(system, domain, 4, pc="b1", trace=trace)
        b2 = ThriftyBarrier(system, domain, 4, pc="b2")

        def program(node):
            for _ in range(3):
                yield from node.cpu.compute(200_000 * (node.node_id + 1))
                yield from b1.wait(node)
                yield from node.cpu.compute(400_000 * (node.node_id + 1))
                yield from b2.wait(node)

        system.run_threads(program)
        # Separate PC-indexed entries were trained for each barrier.
        assert domain.predictor.peek("b1") is not None
        assert domain.predictor.peek("b2") is not None
        assert domain.predictor.peek("b2") > domain.predictor.peek("b1")


class TestDirtyFootprint:
    def test_deep_sleep_flush_charges_compute(self):
        system, _, barrier = build_thrifty()
        run_phases(system, barrier, BIG_IMBALANCE, dirty_lines=64)
        total = system.total_account()
        base_system, _, base_barrier = build_thrifty()
        run_phases(base_system, base_barrier, BIG_IMBALANCE, dirty_lines=0)
        assert total.time_ns(Category.COMPUTE) > (
            base_system.total_account().time_ns(Category.COMPUTE)
        )

    def test_flush_recorded_in_trace(self):
        system, _, barrier = build_thrifty()
        trace = run_phases(system, barrier, BIG_IMBALANCE, dirty_lines=16)
        flushed = [
            sleep_record.flushed_lines
            for record in trace.released_instances()
            for sleep_record in record.sleeps.values()
            if sleep_record.state_name == SLEEP3.name
        ]
        assert flushed and all(lines >= 16 for lines in flushed)


# A menu of 1-4 states in increasing-latency order (as ThriftyConfig
# requires), drawn from few savings levels so ties are common.
menus = st.lists(
    st.tuples(
        st.integers(0, 60_000),
        st.sampled_from((0.25, 0.5, 0.75, 1.0)),
        st.booleans(),
    ),
    min_size=1, max_size=4,
).map(lambda rows: tuple(
    SleepStateConfig(
        name="S{}".format(index), power_savings=savings,
        transition_latency_ns=latency, snoops=snoops,
        voltage_reduction=False,
    )
    for index, (latency, savings, snoops) in enumerate(sorted(rows))
))


class TestStateSelectionTable:
    """``_choose_state`` is ``select_sleep_state`` given the barrier's
    flush estimate for the dirty footprint and its conditional flag."""

    @given(
        menu=menus,
        conditional=st.booleans(),
        queries=st.lists(
            st.tuples(st.integers(0, 150_000), st.integers(0, 300)),
            min_size=1, max_size=8,
        ),
    )
    def test_matches_reference_scan(self, menu, conditional, queries):
        _, _, barrier = build_thrifty(ThriftyConfig(
            sleep_states=menu, conditional_sleep=conditional,
        ))
        for stall, dirty_lines in queries:
            flush_ns = barrier._flush_estimate_ns(dirty_lines)
            # Each state's own cost is a boundary of the scan.
            costs = [
                state.round_trip_ns + (0 if state.snoops else flush_ns)
                for state in menu
            ]
            for slack in [stall] + costs:
                assert barrier._choose_state(slack, dirty_lines) is (
                    select_sleep_state(
                        menu, slack, flush_ns=flush_ns,
                        conditional=conditional,
                    )
                )
