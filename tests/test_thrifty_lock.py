"""Tests for the thrifty lock extension (paper Section 7 future work)."""

import pytest

from repro.energy.accounting import Category
from repro.errors import SimulationError
from repro.sync import SpinLock, ThriftyLock

from tests.conftest import make_system

HOLD_NS = 400_000  # long critical sections, worth sleeping through


def run_contenders(system, lock, hold_ns=HOLD_NS, rounds=2):
    order = []

    def program(node):
        for _ in range(rounds):
            yield from lock.acquire(node)
            order.append(node.node_id)
            yield from node.cpu.compute(hold_ns)
            yield from lock.release(node)

    system.run_threads(program)
    return order


def test_mutual_exclusion():
    system = make_system()
    lock = ThriftyLock(system)
    order = run_contenders(system, lock)
    assert len(order) == 8
    assert lock.stats_acquisitions == 8
    assert not lock.held


def test_sleeps_once_hold_time_learned():
    system = make_system()
    lock = ThriftyLock(system)
    run_contenders(system, lock, rounds=3)
    # The first round is cold (no hold-time history); later contenders
    # with long predicted waits sleep.
    assert lock.stats.sleeps > 0
    assert system.total_account().time_ns(Category.SLEEP) > 0


def test_cold_lock_spins():
    system = make_system()
    lock = ThriftyLock(system)
    run_contenders(system, lock, rounds=1)
    # No history on first contention round: every wait was a spin.
    assert lock.stats.sleeps == 0
    assert lock.stats.spin_waits > 0


def test_short_holds_never_sleep():
    system = make_system()
    lock = ThriftyLock(system)
    run_contenders(system, lock, hold_ns=1_000, rounds=3)
    assert lock.stats.sleeps == 0


def test_saves_energy_versus_spinlock():
    spin_system = make_system()
    spin_lock = SpinLock(spin_system)

    def spin_program(node):
        for _ in range(3):
            yield from spin_lock.acquire(node)
            yield from node.cpu.compute(HOLD_NS)
            yield from spin_lock.release(node)

    spin_system.run_threads(spin_program)

    thrifty_system = make_system()
    thrifty_lock = ThriftyLock(thrifty_system)
    run_contenders(thrifty_system, thrifty_lock, rounds=3)

    assert (
        thrifty_system.total_account().energy_joules()
        < spin_system.total_account().energy_joules()
    )


def test_performance_close_to_spinlock():
    spin_system = make_system()
    spin_lock = SpinLock(spin_system)

    def spin_program(node):
        for _ in range(3):
            yield from spin_lock.acquire(node)
            yield from node.cpu.compute(HOLD_NS)
            yield from spin_lock.release(node)

    spin_system.run_threads(spin_program)
    thrifty_system = make_system()
    run_contenders(thrifty_system, ThriftyLock(thrifty_system), rounds=3)
    ratio = (
        thrifty_system.execution_time_ns / spin_system.execution_time_ns
    )
    assert ratio < 1.06


def test_handoff_wake_cancels_its_timer():
    # The holds shrink from 400 to 20 us, so sleepers whose countdowns
    # were armed from a 400 us hold are woken by the hand-off first.
    system = make_system()
    lock = ThriftyLock(system)

    def program(node):
        for hold_ns in (400_000, 400_000, 20_000):
            yield from lock.acquire(node)
            yield from node.cpu.compute(hold_ns)
            yield from lock.release(node)

    system.run_threads(program)
    assert lock.stats.handoff_wakes == 5
    # Each losing countdown is dequeued cancelled instead of running.
    assert system.sim.skipped_cancelled == lock.stats.handoff_wakes


def test_release_by_non_holder_rejected():
    system = make_system()
    lock = ThriftyLock(system)

    def bad(node):
        yield from lock.acquire(node)
        lock._holder = 42
        yield from lock.release(node)

    with pytest.raises(SimulationError):
        system.run_threads(bad, n_threads=1)
