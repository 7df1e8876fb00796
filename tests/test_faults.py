"""Fault plans, injector seams, and perturbed-run determinism."""

import pytest

from repro.errors import ConfigError
from repro.experiments.runner import run_experiment
from repro.faults import FAULT_KINDS, FaultInjector, FaultPlan
from repro.sim.core import Simulator
from repro.sim.events import Event
from repro.telemetry.events import FaultInjected
from repro.telemetry.export import chrome_trace_json
from repro.telemetry.tracer import Tracer

#: A plan exercising every seam with certainty, for seam unit tests and
#: guaranteed-injection run tests.
EVERY_SEAM = dict(
    timer_drift_probability=1.0, timer_drift_max_ns=5_000,
    timer_loss_probability=0.0,
    invalidation_delay_probability=1.0, invalidation_delay_max_ns=5_000,
    transition_jitter_probability=1.0, transition_jitter_max_ns=2_000,
    spurious_wake_probability=1.0, spurious_wake_max_ns=10_000,
    stall_probability=0.2,
)


class TestFaultPlan:
    def test_default_plan_is_noop(self):
        plan = FaultPlan()
        assert plan.is_noop

    def test_validation_rejects_bad_probability(self):
        with pytest.raises(ConfigError):
            FaultPlan(timer_loss_probability=1.5)
        with pytest.raises(ConfigError):
            FaultPlan(stall_probability=-0.1)

    def test_validation_rejects_negative_magnitude(self):
        with pytest.raises(ConfigError):
            FaultPlan(timer_drift_max_ns=-1)

    def test_drops_require_redelivery(self):
        # A dropped-and-never-redelivered invalidation would break the
        # liveness guarantee by construction; the plan refuses it.
        with pytest.raises(ConfigError):
            FaultPlan(
                invalidation_drop_probability=0.5,
                invalidation_redeliver_ns=0,
            )

    def test_sample_is_deterministic(self):
        assert FaultPlan.sample(5) == FaultPlan.sample(5)
        assert FaultPlan.sample(5) != FaultPlan.sample(6)

    def test_sample_zero_intensity_is_noop(self):
        assert FaultPlan.sample(5, intensity=0.0).is_noop

    def test_as_dict_round_trips(self):
        plan = FaultPlan.sample(3)
        assert FaultPlan(**plan.as_dict()) == plan


def make_injector(**plan_fields):
    sim = Simulator()
    injector = FaultInjector(FaultPlan(**plan_fields), sim)
    return sim, injector


class TestInjectorSeams:
    def test_timer_loss(self):
        _, injector = make_injector(timer_loss_probability=1.0)
        delay, lost = injector.on_wake_timer(0, 1_000)
        assert (delay, lost) == (1_000, True)
        assert injector.counts == {"timer_loss": 1}

    def test_timer_drift_stays_non_negative(self):
        _, injector = make_injector(
            timer_drift_probability=1.0, timer_drift_max_ns=5_000
        )
        for _ in range(50):
            delay, lost = injector.on_wake_timer(0, 1_000)
            assert not lost
            assert delay >= 0
        assert injector.counts["timer_drift"] == 50

    def test_invalidation_drop_redelivers(self):
        _, injector = make_injector(
            invalidation_drop_probability=1.0,
            invalidation_redeliver_ns=77_000,
        )
        assert injector.on_monitor_fire(0, 0x100) == 77_000
        assert injector.counts == {"invalidation_drop": 1}

    def test_invalidation_delay_bounded(self):
        _, injector = make_injector(
            invalidation_delay_probability=1.0,
            invalidation_delay_max_ns=4_000,
        )
        for _ in range(50):
            assert 0 <= injector.on_monitor_fire(0, 0x100) <= 4_000

    def test_transition_jitter_bounded(self):
        _, injector = make_injector(
            transition_jitter_probability=1.0,
            transition_jitter_max_ns=3_000,
        )
        for _ in range(50):
            assert 0 <= injector.on_transition(0, "Sleep3") <= 3_000

    def test_spurious_wake_fires_with_sentinel_value(self):
        sim, injector = make_injector(
            spurious_wake_probability=1.0, spurious_wake_max_ns=500
        )
        wake = Event(sim)
        injector.on_sleep_entry(0, wake)
        sim.run()
        assert wake.triggered
        assert wake.value == "fault:spurious"
        assert injector.counts == {"spurious_wake": 1}

    def test_spurious_wake_never_double_triggers(self):
        # A real wake-up that beats the stray signal must win cleanly:
        # the scheduled fire is guarded and records nothing.
        sim, injector = make_injector(
            spurious_wake_probability=1.0, spurious_wake_max_ns=500
        )
        wake = Event(sim)
        injector.on_sleep_entry(0, wake)
        wake.succeed("real")
        sim.run()
        assert wake.value == "real"
        assert injector.counts == {}

    def test_perturb_hook_only_with_stall_component(self):
        _, without = make_injector(stall_probability=0.0)
        assert without.perturb_hook() is None
        _, with_stalls = make_injector(stall_probability=0.5)
        assert callable(with_stalls.perturb_hook())

    def test_seam_streams_are_independent(self):
        # Consuming one seam's stream must not shift another's draws.
        _, reference = make_injector(**EVERY_SEAM)
        expected = reference.on_transition(0, "Sleep3")
        _, injector = make_injector(**EVERY_SEAM)
        for _ in range(10):
            injector.on_wake_timer(0, 1_000)
            injector.on_monitor_fire(0, 0x100)
        assert injector.on_transition(0, "Sleep3") == expected

    def test_fault_kinds_cover_all_counters(self):
        _, injector = make_injector(
            timer_loss_probability=1.0, spurious_wake_probability=1.0
        )
        injector.on_wake_timer(0, 1_000)
        assert set(injector.counts) <= set(FAULT_KINDS)
        assert injector.total_injected == 1


class TestPerturbedRuns:
    def test_noop_plan_identical_to_no_plan(self):
        plain = run_experiment("fmm", "thrifty", threads=8)
        noop = run_experiment(
            "fmm", "thrifty", threads=8, fault_plan=FaultPlan()
        )
        assert plain.identical(noop)

    def test_plan_actually_perturbs_and_is_observable(self):
        plan = FaultPlan(**EVERY_SEAM)
        result = run_experiment(
            "fmm", "thrifty", threads=8, telemetry=True, fault_plan=plan
        )
        injected = [
            event for event in result.telemetry.events
            if isinstance(event, FaultInjected)
        ]
        assert injected
        assert {event.fault for event in injected} <= set(FAULT_KINDS)

    def test_same_plan_same_run_byte_identical_trace(self):
        plan = FaultPlan.sample(3)

        def trace():
            result = run_experiment(
                "fmm", "thrifty", threads=8, telemetry=True,
                fault_plan=plan,
            )
            return result, chrome_trace_json(result.telemetry.events)

        first, first_json = trace()
        second, second_json = trace()
        assert first_json == second_json
        assert first.identical(second)

    def test_different_plan_seeds_diverge(self):
        base = dict(EVERY_SEAM)
        one = run_experiment(
            "fmm", "thrifty", threads=8, telemetry=True,
            fault_plan=FaultPlan(seed=1, **base),
        )
        two = run_experiment(
            "fmm", "thrifty", threads=8, telemetry=True,
            fault_plan=FaultPlan(seed=2, **base),
        )
        assert chrome_trace_json(one.telemetry.events) != (
            chrome_trace_json(two.telemetry.events)
        )

    def test_fault_counters_surface_in_metrics(self):
        tracer = Tracer()
        plan = FaultPlan(**EVERY_SEAM)
        run_experiment(
            "fmm", "thrifty", threads=8, telemetry=tracer, fault_plan=plan
        )
        counters = tracer.metrics.snapshot().get("counters", {})
        assert counters.get("fault.injected", 0) > 0
        assert any(
            counters.get("fault.kind[{}]".format(kind), 0) > 0
            for kind in FAULT_KINDS
        )
