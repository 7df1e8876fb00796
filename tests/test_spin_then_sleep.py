"""Tests for the spin-then-halt baseline barrier."""

import pytest

from repro.config import SLEEP1_HALT, SLEEP2, MachineConfig
from repro.energy.accounting import Category
from repro.errors import ConfigError
from repro.experiments.runner import build_simulation
from repro.machine import System
from repro.sync import ConventionalBarrier, SpinThenSleepBarrier
from repro.telemetry.events import SleepExit, WakeUp
from repro.telemetry.tracer import Tracer

from tests.conftest import (
    make_domain,
    make_system,
    run_phases,
    staggered_schedules,
)


def build(threshold_ns=50_000, n_nodes=4):
    system = make_system(n_nodes=n_nodes)
    domain = make_domain(system)
    barrier = SpinThenSleepBarrier(
        system, domain, n_nodes, pc="sts",
        sleep_state=SLEEP1_HALT, spin_threshold_ns=threshold_ns,
    )
    return system, barrier


def test_short_stall_stays_spinning():
    system, barrier = build(threshold_ns=100_000)
    run_phases(system, barrier, staggered_schedules(4, 2, 10_000, 10_000))
    assert barrier.stats_sleeps == 0
    assert system.total_account().time_ns(Category.SLEEP) == 0


def test_long_stall_halts_after_threshold():
    system, barrier = build(threshold_ns=50_000)
    run_phases(system, barrier, staggered_schedules(4, 2, 0, 400_000))
    assert barrier.stats_sleeps > 0
    total = system.total_account()
    assert total.time_ns(Category.SLEEP) > 0
    # The threshold spin is still paid on every long stall.
    assert total.time_ns(Category.SPIN) >= 50_000 * barrier.stats_sleeps


def test_traced_halt_reports_its_invalidation_wake():
    # The same WakeUp per SleepExit the thrifty barrier's fallback Halt
    # emits: the two share one spin-then-Halt.
    system = System(MachineConfig(n_nodes=4), telemetry=Tracer())
    barrier = SpinThenSleepBarrier(
        system, make_domain(system), 4, pc="sts", sleep_state=SLEEP1_HALT,
    )
    run_phases(system, barrier, staggered_schedules(4, 2, 0, 400_000))
    events = system.telemetry.events
    wakes = [e for e in events if isinstance(e, WakeUp)]
    exits = [e for e in events if isinstance(e, SleepExit)]
    assert len(exits) == barrier.stats_sleeps > 0
    assert [(w.ts, w.thread) for w in wakes] == [
        (e.ts, e.thread) for e in exits
    ]
    assert {(w.source, w.state, w.pc) for w in wakes} == {
        ("invalidation", SLEEP1_HALT.name, "sts")
    }


def test_wakes_late_by_construction():
    # External-only wake-up: the exit transition is fully exposed, so
    # execution time trails the conventional barrier's.
    schedules = staggered_schedules(4, 3, 0, 400_000)
    system, barrier = build(threshold_ns=20_000)
    run_phases(system, barrier, schedules)
    base_system = make_system()
    base_domain = make_domain(base_system)
    base_barrier = ConventionalBarrier(base_system, base_domain, 4, pc="b")
    run_phases(base_system, base_barrier, schedules)
    assert system.execution_time_ns > base_system.execution_time_ns
    # ... but bounded by one exit latency per instance for the critical
    # thread plus overheads.
    assert system.execution_time_ns < (
        base_system.execution_time_ns
        + 3 * SLEEP1_HALT.transition_latency_ns
        + 3 * 20_000
    )


def test_run_ends_at_the_last_thread_exit():
    # A flag released within the spin budget must cancel the budget's
    # timeout: left queued, it ran after every thread had exited and
    # ended Cholesky-16 43 us late.
    def factory(system, domain, n_threads, pc, trace):
        return SpinThenSleepBarrier(
            system, domain, n_threads, pc, sleep_state=SLEEP1_HALT,
            trace=trace,
        )

    _system, runner = build_simulation(
        "cholesky", 16, 1, factory, MachineConfig(n_nodes=16),
    )
    run = runner.run()
    last_exit = max(
        max(record.departures.values()) for record in run.trace.instances
    )
    assert run.execution_time_ns == last_exit


def test_saves_energy_versus_conventional_on_long_stalls():
    schedules = staggered_schedules(4, 3, 0, 2_000_000)
    system, barrier = build(threshold_ns=50_000)
    run_phases(system, barrier, schedules)
    base_system = make_system()
    base_domain = make_domain(base_system)
    base_barrier = ConventionalBarrier(base_system, base_domain, 4, pc="b")
    run_phases(base_system, base_barrier, schedules)
    assert (
        system.total_account().energy_joules()
        < base_system.total_account().energy_joules()
    )


def test_non_snooping_state_rejected():
    system = make_system()
    domain = make_domain(system)
    with pytest.raises(ConfigError):
        SpinThenSleepBarrier(
            system, domain, 4, pc="bad", sleep_state=SLEEP2
        )


def test_negative_threshold_rejected():
    system = make_system()
    domain = make_domain(system)
    with pytest.raises(ConfigError):
        SpinThenSleepBarrier(
            system, domain, 4, pc="bad",
            sleep_state=SLEEP1_HALT, spin_threshold_ns=-1,
        )
