"""Unit tests for the discrete-event kernel (repro.sim.core)."""

import pytest

from repro.errors import SchedulingError
from repro.sim import Simulator


def test_time_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0


def test_schedule_runs_in_time_order():
    sim = Simulator()
    log = []
    sim.schedule(30, log.append, "c")
    sim.schedule(10, log.append, "a")
    sim.schedule(20, log.append, "b")
    sim.run()
    assert log == ["a", "b", "c"]
    assert sim.now == 30


def test_same_time_runs_in_insertion_order():
    sim = Simulator()
    log = []
    for tag in "abcde":
        sim.schedule(7, log.append, tag)
    sim.run()
    assert log == list("abcde")


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SchedulingError):
        sim.schedule(-1, lambda: None)


def test_float_delay_rejected():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.schedule(1.5, lambda: None)


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(100, lambda: None)
    sim.run()
    with pytest.raises(SchedulingError):
        sim.schedule_at(50, lambda: None)


def test_cancel_prevents_execution():
    sim = Simulator()
    log = []
    handle = sim.schedule(5, log.append, "x")
    sim.schedule(3, handle.cancel)
    sim.run()
    assert log == []


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.schedule(5, lambda: None)
    handle.cancel()
    handle.cancel()
    sim.run()


def test_nested_scheduling_from_callback():
    sim = Simulator()
    log = []

    def outer():
        log.append(("outer", sim.now))
        sim.schedule(4, inner)

    def inner():
        log.append(("inner", sim.now))

    sim.schedule(6, outer)
    sim.run()
    assert log == [("outer", 6), ("inner", 10)]


def test_run_until_stops_and_advances_clock():
    sim = Simulator()
    log = []
    sim.schedule(10, log.append, "early")
    sim.schedule(100, log.append, "late")
    sim.run(until=50)
    assert log == ["early"]
    assert sim.now == 50
    sim.run()
    assert log == ["early", "late"]


def test_run_until_with_empty_queue_advances_clock():
    sim = Simulator()
    sim.run(until=123)
    assert sim.now == 123


def test_max_events_guard():
    sim = Simulator()

    def rescheduler():
        sim.schedule(1, rescheduler)

    sim.schedule(0, rescheduler)
    with pytest.raises(SchedulingError):
        sim.run(max_events=100)


def test_pending_count_ignores_cancelled():
    sim = Simulator()
    keep = sim.schedule(5, lambda: None)
    drop = sim.schedule(6, lambda: None)
    drop.cancel()
    assert sim.pending == 1
    assert not keep.cancelled


def test_step_returns_false_on_empty_queue():
    sim = Simulator()
    assert sim.step() is False


def test_trace_hook_sees_every_callback():
    seen = []
    sim = Simulator(trace=lambda now, fn, args: seen.append(now))
    sim.schedule(1, lambda: None)
    sim.schedule(2, lambda: None)
    sim.run()
    assert seen == [1, 2]


def test_clock_never_goes_backward():
    sim = Simulator()
    times = []
    for delay in (5, 1, 9, 1, 5):
        sim.schedule(delay, lambda: times.append(sim.now))
    sim.run()
    assert times == sorted(times)


@pytest.mark.parametrize("until", [None, 10])
def test_step_inside_run_is_rejected(until):
    """A callback may not step the queue it is being dispatched from:
    the dispatch loop still holds its place in the bucket, so a nested
    step() would run the next same-time entry twice."""
    sim = Simulator()
    log = []

    def first():
        log.append("a")
        sim.step()

    sim.schedule(5, first)
    sim.schedule(5, log.append, "b")
    with pytest.raises(SchedulingError):
        sim.run(until=until)
    assert log == ["a"]
    # Resuming the interrupted bucket runs "b" once, and not "a" again.
    assert sim.step() is True
    assert log == ["a", "b"]
    assert sim.step() is False
    assert sim.executed == 1  # "a" raised before completing


def test_step_honours_tie_breaker():
    """Stepping a two-entry bucket under a driver makes the same choice,
    and records the same decision, as run()."""
    from repro.check.tiebreak import ScheduleDriver

    def build():
        sim = Simulator()
        sim.tie_breaker = ScheduleDriver((1,))
        log = []
        sim.schedule(5, log.append, "a")
        sim.schedule(5, log.append, "b")
        return sim, log

    ran, ran_log = build()
    ran.run()
    stepped, stepped_log = build()
    while stepped.step():
        pass
    assert stepped_log == ran_log == ["b", "a"]
    assert stepped.tie_breaker.trace == ran.tie_breaker.trace == [(2, 1)]
    assert stepped.executed == ran.executed == 2
