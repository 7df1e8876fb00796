"""Unit tests for generator processes (repro.sim.process)."""

import pytest

from repro.errors import ProcessError
from repro.sim import AnyOf, Simulator


def test_process_advances_through_timeouts():
    sim = Simulator()
    trace = []

    def worker():
        trace.append(sim.now)
        yield sim.timeout(10)
        trace.append(sim.now)
        yield sim.timeout(5)
        trace.append(sim.now)

    sim.spawn(worker())
    sim.run()
    assert trace == [0, 10, 15]


def test_spawn_does_not_run_body_immediately():
    sim = Simulator()
    trace = []

    def worker():
        trace.append("ran")
        yield sim.timeout(1)

    sim.spawn(worker())
    assert trace == []  # body starts only once the loop runs
    sim.run()
    assert trace == ["ran"]


def test_process_return_value_becomes_event_value():
    sim = Simulator()

    def worker():
        yield sim.timeout(2)
        return "result"

    proc = sim.spawn(worker())
    sim.run()
    assert proc.value == "result"


def test_yield_from_subroutine_returns_value():
    sim = Simulator()

    def sub():
        yield sim.timeout(3)
        return 7

    def main(out):
        got = yield from sub()
        out.append((sim.now, got))

    out = []
    sim.spawn(main(out))
    sim.run()
    assert out == [(3, 7)]


def test_process_waits_on_another_process():
    sim = Simulator()
    order = []

    def child():
        yield sim.timeout(8)
        order.append("child")
        return "payload"

    def parent(child_proc):
        value = yield child_proc
        order.append(("parent", value, sim.now))

    child_proc = sim.spawn(child())
    sim.spawn(parent(child_proc))
    sim.run()
    assert order == ["child", ("parent", "payload", 8)]


def test_timeout_value_is_sent_into_generator():
    sim = Simulator()
    received = []

    def worker():
        got = yield sim.timeout(1, value="tick")
        received.append(got)

    sim.spawn(worker())
    sim.run()
    assert received == ["tick"]


def test_process_exception_recorded_on_event():
    sim = Simulator()

    def worker():
        yield sim.timeout(1)
        raise ValueError("inside")

    proc = sim.spawn(worker())
    sim.run()
    assert proc.triggered and not proc.ok
    with pytest.raises(ValueError):
        _ = proc.value


def test_failed_event_raises_inside_waiter():
    sim = Simulator()
    caught = []

    def worker(event):
        try:
            yield event
        except RuntimeError as exc:
            caught.append(str(exc))

    event = sim.event()
    sim.spawn(worker(event))
    sim.schedule(4, event.fail, RuntimeError("injected"))
    sim.run()
    assert caught == ["injected"]


def test_yielding_non_event_fails_process():
    sim = Simulator()

    def worker():
        yield "not an event"

    proc = sim.spawn(worker())
    sim.run()
    assert not proc.ok
    with pytest.raises(ProcessError):
        _ = proc.value


def test_yielding_int_waits_that_many_ns():
    sim = Simulator()
    trace = []

    def worker():
        trace.append(sim.now)
        got = yield 10
        trace.append((sim.now, got))
        yield 0  # zero-delay resume stays at the current time
        trace.append(sim.now)

    sim.spawn(worker())
    sim.run()
    # Integer delays resume with None, mirroring a value-less Timeout.
    assert trace == [0, (10, None), 10]


def test_int_and_timeout_yields_interleave_identically():
    sim = Simulator()
    order = []

    def via_int(tag):
        yield 5
        order.append(tag)

    def via_timeout(tag):
        yield sim.timeout(5)
        order.append(tag)

    sim.spawn(via_int("a"))
    sim.spawn(via_timeout("b"))
    sim.spawn(via_int("c"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_yielding_negative_int_fails_process():
    sim = Simulator()

    def worker():
        yield -1

    proc = sim.spawn(worker())
    sim.run()
    assert not proc.ok
    with pytest.raises(ProcessError):
        _ = proc.value


def test_yielding_bool_fails_process():
    # bool is an int subclass, but only exact ints take the delay fast
    # path; anything else must hit the invalid-yield error.
    sim = Simulator()

    def worker():
        yield True

    proc = sim.spawn(worker())
    sim.run()
    assert not proc.ok
    with pytest.raises(ProcessError):
        _ = proc.value


def test_spawn_rejects_non_generator():
    sim = Simulator()
    with pytest.raises(ProcessError):
        sim.spawn(lambda: None)


def test_process_racing_anyof_sees_winner():
    sim = Simulator()
    outcomes = []

    def sleeper(timer_ns, external):
        timer = sim.timeout(timer_ns)
        winner = yield AnyOf(sim, [timer, external])
        outcomes.append("timer" if winner is timer else "external")

    external = sim.event()
    sim.spawn(sleeper(100, external))
    sim.schedule(40, external.succeed)
    sim.run()
    assert outcomes == ["external"]


def test_many_interleaved_processes_deterministic():
    sim = Simulator()
    log = []

    def worker(ident, period):
        for _ in range(3):
            yield sim.timeout(period)
            log.append((sim.now, ident))

    for ident, period in enumerate((7, 5, 7)):
        sim.spawn(worker(ident, period))
    sim.run()
    assert log == sorted(log, key=lambda item: item[0])
    # Same-time events keep spawn order: workers 0 and 2 share period 7.
    sevens = [ident for now, ident in log if now == 7]
    assert sevens == [0, 2]


# ---------------------------------------------------------------------------
# A queued process is resumed by the dispatch loops themselves; every
# outcome of that resume must end the process the same way whichever
# loop (the full drain, the instrumented loop, step(), or a choice
# point) runs it.


def _ending(kind, sim, log):
    """A process body whose resume from the queue ends as ``kind``."""

    def body():
        log.append(("start", sim.now))
        yield 5  # every ending below happens on a queued resume
        log.append(("resumed", sim.now))
        if kind == "return":
            return "done"
        if kind == "raise":
            raise ValueError("inside")
        if kind == "negative":
            yield -1
        elif kind == "non-event":
            yield "not an event"
        elif kind == "caught-bad-yield":
            try:
                yield "not an event"
            except ProcessError:
                log.append(("caught", sim.now))
            yield 3  # left suspended: the process fails regardless
        elif kind == "triggered":
            event = sim.event()
            event.succeed("ready")
            got = yield event
            log.append(("got", got, sim.now))
            yield 3
            log.append(("after", sim.now))
            return got
        elif kind == "triggered-failed":
            event = sim.event()
            event.fail(KeyError("gone"))
            try:
                yield event
            except KeyError:
                log.append(("threw", sim.now))
            return "recovered"

    return body()


ENDINGS = (
    "return", "raise", "negative", "non-event", "caught-bad-yield",
    "triggered", "triggered-failed",
)


def _drive(kind, mode):
    from repro.check.tiebreak import FifoTieBreaker

    sim = Simulator()
    log = []
    # A sibling at the same times makes each resume share its bucket,
    # so the list-bucket paths run too.
    sibling_log = []

    def sibling():
        yield 5
        sibling_log.append(sim.now)
        yield 3
        sibling_log.append(sim.now)

    proc = sim.spawn(_ending(kind, sim, log), name="p")
    sim.spawn(sibling(), name="s")
    if mode == "run":
        sim.run()
    elif mode == "until":
        sim.run(until=1_000)
    elif mode == "step":
        while sim.step():
            pass
    else:
        sim.tie_breaker = FifoTieBreaker()
        sim.run()
    if proc.ok:
        outcome = ("ok", proc.value)
    else:
        exc = proc.exception
        outcome = ("failed", type(exc).__name__, str(exc))
    return outcome, log, sibling_log, sim.executed, sim.pending


@pytest.mark.parametrize("kind", ENDINGS)
@pytest.mark.parametrize("mode", ["until", "step", "tie-breaker"])
def test_queued_process_ends_alike_in_every_dispatch_mode(kind, mode):
    assert _drive(kind, mode) == _drive(kind, "run")


@pytest.mark.parametrize("kind", ENDINGS)
def test_queued_process_endings(kind):
    outcome, log, sibling_log, _, pending = _drive(kind, "run")
    assert pending == 0
    assert sibling_log == [5, 8]
    expected = {
        "return": ("ok", "done"),
        "raise": ("failed", "ValueError", "inside"),
        "triggered": ("ok", "ready"),
        "triggered-failed": ("ok", "recovered"),
    }
    if kind in expected:
        assert outcome == expected[kind]
    else:
        assert outcome[:2] == ("failed", "ProcessError")
    if kind == "triggered":
        # An already-triggered event continues the generator at once.
        assert ("got", "ready", 5) in log and ("after", 8) in log
    if kind == "caught-bad-yield":
        assert ("caught", 5) in log


def test_pending_counts_a_queued_process():
    sim = Simulator()

    def sleeper():
        yield 10

    sim.spawn(sleeper())
    assert sim.pending == 1
    sim.run(until=5)
    assert sim.pending == 1  # resumed once, queued again at t=10
    sim.run()
    assert sim.pending == 0


def test_trace_hook_is_shown_the_pinned_resume_callback():
    seen = []
    sim = Simulator(trace=lambda now, fn, args: seen.append((now, fn, args)))

    def sleeper():
        yield 4

    proc = sim.spawn(sleeper())
    sim.run()
    assert seen == [
        (0, proc._resume_cb, (None, None)),
        (4, proc._resume_cb, (None, None)),
    ]
