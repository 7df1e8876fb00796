"""Unit tests for events and combinators (repro.sim.events)."""

import pytest

from repro.errors import SchedulingError
from repro.sim import AnyOf, Simulator


def test_event_lifecycle():
    sim = Simulator()
    event = sim.event()
    assert not event.triggered
    event.succeed(42)
    assert event.triggered and event.ok
    assert event.value == 42


def test_event_value_before_trigger_raises():
    sim = Simulator()
    with pytest.raises(SchedulingError):
        _ = sim.event().value


def test_event_double_trigger_rejected():
    sim = Simulator()
    event = sim.event().succeed()
    with pytest.raises(SchedulingError):
        event.succeed()
    with pytest.raises(SchedulingError):
        event.fail(RuntimeError("boom"))


def test_event_fail_requires_exception():
    sim = Simulator()
    with pytest.raises(SchedulingError):
        sim.event().fail("not an exception")


def test_event_failure_propagates_via_value():
    sim = Simulator()
    event = sim.event().fail(ValueError("bad"))
    assert event.triggered and not event.ok
    with pytest.raises(ValueError):
        _ = event.value


def test_callback_after_trigger_runs_immediately():
    sim = Simulator()
    event = sim.event().succeed("x")
    seen = []
    event.add_callback(lambda ev: seen.append(ev.value))
    assert seen == ["x"]


def test_callbacks_run_in_registration_order():
    sim = Simulator()
    event = sim.event()
    order = []
    event.add_callback(lambda ev: order.append(1))
    event.add_callback(lambda ev: order.append(2))
    event.succeed()
    assert order == [1, 2]


def test_timeout_fires_at_deadline():
    sim = Simulator()
    timeout = sim.timeout(25, value="done")
    fired = []
    timeout.add_callback(lambda ev: fired.append(sim.now))
    sim.run()
    assert fired == [25]
    assert timeout.value == "done"


def test_timeout_cancel_prevents_fire():
    sim = Simulator()
    timeout = sim.timeout(25)
    timeout.cancel()
    sim.run()
    assert not timeout.triggered


def test_anyof_returns_winning_event():
    sim = Simulator()
    fast = sim.timeout(3, value="fast")
    slow = sim.timeout(9, value="slow")
    race = AnyOf(sim, [slow, fast])
    sim.run()
    assert race.value is fast
    assert race.value.value == "fast"


def test_anyof_only_first_counts():
    sim = Simulator()
    first = sim.timeout(3)
    second = sim.timeout(3)  # same tick, later insertion
    race = AnyOf(sim, [first, second])
    sim.run()
    assert race.value is first


def test_anyof_empty_rejected():
    sim = Simulator()
    with pytest.raises(SchedulingError):
        AnyOf(sim, [])


def test_anyof_child_failure_fails_race():
    sim = Simulator()
    bad = sim.event()
    race = AnyOf(sim, [bad, sim.timeout(100)])
    bad.fail(RuntimeError("nope"))
    assert race.triggered and not race.ok


@pytest.mark.parametrize("count", [1, 2, 3, 5])
@pytest.mark.parametrize("trigger", ["succeed", "fail"])
def test_callbacks_fire_in_the_order_added(count, trigger):
    """The first callback sits in the event's slot and later ones in a
    list; either way they run in the order they were added, and one
    added while they run (the event is triggered) runs at once."""
    sim = Simulator()
    event = sim.event()
    order = []

    def make(tag):
        def callback(ev):
            order.append(tag)
            if tag == 0:
                ev.add_callback(lambda _ev: order.append("late"))
        return callback

    for tag in range(count):
        event.add_callback(make(tag))
    if trigger == "succeed":
        event.succeed()
    else:
        event.fail(RuntimeError("x"))
    assert order == [0, "late", *range(1, count)]
