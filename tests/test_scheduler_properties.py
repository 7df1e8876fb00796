"""Property tests for the bucketed calendar queue (repro.sim.core).

The calendar queue replaced a single ``(time, seq)`` heap; its contract
is that dispatch order, cancellation accounting, and the executed /
skipped_cancelled counters are *exactly* those of the legacy heap. These
tests enforce that by replaying seeded randomized insert/pop/cancel
interleavings against :class:`ReferenceScheduler` — a straight
re-implementation of the legacy heap kept here in the test — and
asserting the two produce identical logs and counters.

The simulator has two dispatch loops: :meth:`Simulator.run`'s full
drain, and one instrumented loop behind every other entry mode. One
property check runs each plan through six entry modes: the full drain,
:meth:`Simulator.step` one callback at a time, ``run(until=...)`` in
small hops (so buckets are repeatedly suspended and resumed mid-drain),
a cancelled-aware trace hook, and a FIFO tie-breaker and an empty
:class:`~repro.check.tiebreak.ScheduleDriver` (both also hooked). In
every hooked mode the hook's ordered stream of dequeues must equal the
reference heap's. The randomized plans are built so timestamps collide
heavily (list buckets), most timestamps stay unique (singleton
buckets), callbacks schedule same-timestamp children into the bucket
currently being drained, and cancellations race the dispatch head.
"""

import heapq
import random

import pytest

from repro.sim import Simulator

SEEDS = range(8)


# ---------------------------------------------------------------------------
# Reference model: the legacy single-heap scheduler.


class _RefHandle:
    __slots__ = ("fn", "args", "cancelled")

    def __init__(self, fn, args):
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class ReferenceScheduler:
    """The pre-rewrite scheduler: one heap of ``(time, seq, handle)``.

    Ties break by global schedule-call order (``seq``); cancelled
    entries are dequeued, counted, and skipped — the exact semantics the
    calendar queue must reproduce. :attr:`dequeues` logs every dequeue
    in order as ``(id, cancelled)``, reading the id :func:`replay` tags
    each callback with.
    """

    def __init__(self):
        self._heap = []
        self._seq = 0
        self.now = 0
        self.executed = 0
        self.skipped_cancelled = 0
        self.dequeues = []

    def schedule(self, delay, fn, *args):
        handle = _RefHandle(fn, args)
        heapq.heappush(self._heap, (self.now + delay, self._seq, handle))
        self._seq += 1
        return handle

    def run(self):
        while self._heap:
            time, _seq, handle = heapq.heappop(self._heap)
            self.dequeues.append((handle.fn.cb_id, handle.cancelled))
            if handle.cancelled:
                self.skipped_cancelled += 1
                continue
            self.now = time
            handle.fn(*handle.args)
            self.executed += 1


# ---------------------------------------------------------------------------
# Randomized plan generation and replay.


def build_plan(seed, n_roots=24, budget=220):
    """A deterministic callback tree: who fires, spawns, and cancels whom.

    Returns ``(roots, actions, precancelled)``:

    * ``roots`` — ``(delay, id)`` pairs scheduled before the run starts;
    * ``actions[id]`` — what callback ``id`` does when it fires: spawn
      children (delays 0..4, so some land in the bucket being drained)
      and/or cancel earlier ids (which may be pending, already fired, or
      already cancelled — all three races are generated);
    * ``precancelled`` — ids cancelled before the run starts, so some
      dequeues (singleton and list buckets alike) are pure skips.

    Delays are drawn from a small range on purpose: with ~200 callbacks
    in a span of a few dozen timestamps, simultaneity is the common case
    and list buckets grow several entries deep, exactly like barrier
    releases do in the real workloads.
    """
    rng = random.Random(seed)
    actions = {}
    roots = []
    next_id = 0
    frontier = []
    for _ in range(n_roots):
        roots.append((rng.randrange(0, 20), next_id))
        frontier.append(next_id)
        next_id += 1
    while frontier and next_id < budget:
        cb_id = frontier.pop(rng.randrange(len(frontier)))
        todo = []
        for _ in range(rng.randrange(0, 4)):
            if next_id >= budget:
                break
            todo.append(("spawn", rng.randrange(0, 5), next_id))
            frontier.append(next_id)
            next_id += 1
        if next_id > 1 and rng.random() < 0.35:
            todo.append(("cancel", rng.randrange(next_id)))
        rng.shuffle(todo)
        actions[cb_id] = todo
    precancelled = [
        cb_id for _delay, cb_id in roots if rng.random() < 0.2
    ]
    return roots, actions, precancelled


def replay(scheduler, roots, actions, precancelled):
    """Schedule the plan on ``scheduler``; returns the execution log.

    ``scheduler`` only needs ``schedule(delay, fn)`` returning an object
    with ``cancel()``, and a ``now`` attribute/property — satisfied by
    both :class:`Simulator` and :class:`ReferenceScheduler`. Each
    callback carries its plan id as ``cb_id``, so dequeue streams can be
    compared across schedulers.
    """
    log = []
    handles = {}

    def make_callback(cb_id):
        def callback():
            log.append((cb_id, scheduler.now))
            for action in actions.get(cb_id, ()):
                if action[0] == "spawn":
                    _, delay, child = action
                    handles[child] = scheduler.schedule(
                        delay, make_callback(child)
                    )
                else:
                    target = handles.get(action[1])
                    if target is not None:
                        target.cancel()

        callback.cb_id = cb_id
        return callback

    for delay, cb_id in roots:
        handles[cb_id] = scheduler.schedule(delay, make_callback(cb_id))
    for cb_id in precancelled:
        handles[cb_id].cancel()
    return log


def reference_outcome(seed):
    roots, actions, precancelled = build_plan(seed)
    reference = ReferenceScheduler()
    log = replay(reference, roots, actions, precancelled)
    reference.run()
    return log, reference


# ---------------------------------------------------------------------------
# The interleaving property, once per entry mode.

#: Entry modes whose run installs the cancelled-aware trace hook.
HOOKED_MODES = ("traced", "fifo", "driver")


def check_entry_mode(mode, seed):
    """Replay plan ``seed`` through one entry mode; hold it to the heap.

    ``drain`` is :meth:`Simulator.run` with nothing instrumented (the
    full-drain loop); every other mode runs the instrumented loop.
    ``fifo`` and ``driver`` install a tie-breaker, which makes every
    multi-entry bucket a choice point: with the FIFO strategy, or a
    :class:`~repro.check.tiebreak.ScheduleDriver` with no forced
    decisions (the empty decision string names the default schedule),
    the realized schedule must be the legacy ``(time, seq)`` order
    exactly. That equivalence keeps the golden-trace corpus valid while
    ``repro check`` explores deviations from it.
    """
    from repro.check.tiebreak import FifoTieBreaker, ScheduleDriver

    ref_log, reference = reference_outcome(seed)
    roots, actions, precancelled = build_plan(seed)
    dequeues = []

    def hook(now, fn, args, cancelled=False):
        dequeues.append((fn.cb_id, cancelled))

    sim = Simulator(trace=hook if mode in HOOKED_MODES else None)
    if mode == "fifo":
        sim.tie_breaker = FifoTieBreaker()
    elif mode == "driver":
        sim.tie_breaker = ScheduleDriver(())
    log = replay(sim, roots, actions, precancelled)
    if mode == "step":
        while sim.step():
            pass
    elif mode == "until":
        horizon = 0
        while sim.pending:
            horizon += 3
            assert horizon < 10**6, "runaway schedule"
            sim.run(until=horizon)
        sim.run()  # drain any trailing cancelled entries
    else:
        sim.run()
    assert log == ref_log
    assert sim.executed == reference.executed == len(log)
    assert sim.skipped_cancelled == reference.skipped_cancelled
    assert sim.pending == 0
    if mode in HOOKED_MODES:
        # The hook saw every dequeue exactly once, in the heap's order.
        assert dequeues == reference.dequeues
    if sim.tie_breaker is not None:
        # Every consulted choice point recorded the FIFO pick.
        assert sim.tie_breaker.trace
        assert all(d == 0 for d in sim.tie_breaker.decisions)
        assert all(a >= 2 for a in sim.tie_breaker.arities)


@pytest.mark.parametrize("seed", SEEDS)
def test_full_drain_matches_reference_heap(seed):
    check_entry_mode("drain", seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_stepped_drain_matches_reference_heap(seed):
    check_entry_mode("step", seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_incremental_until_matches_reference_heap(seed):
    check_entry_mode("until", seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_traced_drain_matches_reference_heap(seed):
    check_entry_mode("traced", seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_fifo_tie_breaker_choice_lane_matches_reference_heap(seed):
    check_entry_mode("fifo", seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_empty_schedule_driver_matches_reference_heap(seed):
    check_entry_mode("driver", seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_pending_counts_live_entries_only(seed):
    roots, actions, precancelled = build_plan(seed)
    sim = Simulator()
    replay(sim, roots, actions, precancelled)
    assert sim.pending == len(roots) - len(precancelled)


# ---------------------------------------------------------------------------
# Fast-lane ordering: integer yields vs Timeout objects.


def test_int_yields_interleave_exactly_like_timeouts():
    """``yield n`` occupies the same dequeue slot ``yield timeout(n)``
    would, so the two encodings produce identical logs and counters
    (the invariance the golden-trace corpus relies on)."""

    def build(use_int):
        sim = Simulator()
        log = []

        def ticker(tag, period):
            for beat in range(4):
                if use_int:
                    yield period
                else:
                    yield sim.timeout(period)
                log.append((tag, beat, sim.now))

        sim.spawn(ticker("a", 10))
        sim.spawn(ticker("b", 5))
        sim.spawn(ticker("c", 10))  # collides with "a" every beat
        for t in (5, 10, 20, 30):  # Handle callbacks racing the tickers
            sim.schedule(t, log.append, ("handle", t, sim.now))
        sim.run()
        return log, sim.executed + sim.skipped_cancelled

    int_log, int_dequeues = build(use_int=True)
    obj_log, obj_dequeues = build(use_int=False)
    assert int_log == obj_log
    assert int_dequeues == obj_dequeues


def test_fast_lane_resume_is_fifo_within_a_timestamp():
    sim = Simulator()
    log = []

    def sleeper(tag):
        yield 7
        log.append(tag)

    for tag in "abcd":
        sim.spawn(sleeper(tag))
    sim.run()
    assert log == list("abcd")


# ---------------------------------------------------------------------------
# Cancellation edge cases: the skipped_cancelled counter contract.


class TestCancellationEdgeCases:
    def test_cancel_at_current_timestamp(self):
        """A callback cancels a sibling in the same bucket, mid-drain."""
        sim = Simulator()
        log = []
        handles = {}

        def first():
            log.append("first")
            handles["second"].cancel()

        sim.schedule(5, first)
        handles["second"] = sim.schedule(5, log.append, "second")
        sim.run()
        assert log == ["first"]
        assert sim.executed == 1
        assert sim.skipped_cancelled == 1

    def test_cancel_loser_of_simultaneous_race_only_counts_once(self):
        """The hybrid wake-up pattern: two timers at the same instant,
        whichever fires first cancels the other."""
        sim = Simulator()
        log = []
        handles = {}

        def fire(tag, other):
            log.append(tag)
            handles[other].cancel()

        handles["wake"] = sim.schedule(40, fire, "wake", "abort")
        handles["abort"] = sim.schedule(40, fire, "abort", "wake")
        sim.run()
        assert log == ["wake"]  # schedule order decides the race
        assert sim.executed == 1
        assert sim.skipped_cancelled == 1

    def test_double_cancel_counts_one_skip(self):
        sim = Simulator()
        handle = sim.schedule(5, lambda: None)
        handle.cancel()
        handle.cancel()
        sim.run()
        assert sim.skipped_cancelled == 1
        assert sim.executed == 0

    def test_cancel_after_fire_is_inert(self):
        sim = Simulator()
        log = []
        handle = sim.schedule(5, log.append, "x")
        sim.run()
        handle.cancel()  # too late: already dequeued and executed
        sim.schedule(1, log.append, "y")
        sim.run()
        assert log == ["x", "y"]
        assert sim.executed == 2
        assert sim.skipped_cancelled == 0

    def test_cancelled_skip_does_not_advance_clock(self):
        sim = Simulator()
        sim.schedule(100, lambda: None).cancel()
        sim.run()
        assert sim.now == 0
        assert sim.skipped_cancelled == 1

    def test_cancelled_singleton_beyond_until_is_drained(self):
        """Legacy heap behaviour: cancelled entries at the queue head
        are dequeued (and counted) even past the horizon."""
        sim = Simulator()
        sim.schedule(10, lambda: None).cancel()
        sim.run(until=5)
        assert sim.skipped_cancelled == 1
        assert sim.now == 5
        assert sim.pending == 0

    def test_cancelled_list_head_beyond_until_is_drained(self):
        sim = Simulator()
        log = []
        a = sim.schedule(10, log.append, "a")
        b = sim.schedule(10, log.append, "b")
        sim.schedule(10, log.append, "c")
        a.cancel()
        b.cancel()
        sim.run(until=5)
        # The two cancelled heads are consumed; the live "c" is not.
        assert sim.skipped_cancelled == 2
        assert log == []
        assert sim.now == 5
        assert sim.pending == 1
        sim.run()
        assert log == ["c"]
        assert sim.now == 10

    def test_live_list_head_beyond_until_keeps_cancelled_tail(self):
        """A live head past the horizon stops the run before anything
        behind it is dequeued, cancelled entries included."""
        sim = Simulator()
        log = []
        sim.schedule(10, log.append, "a")
        sim.schedule(10, log.append, "b").cancel()
        sim.run(until=5)
        assert sim.skipped_cancelled == 0
        assert log == []
        assert sim.now == 5
        assert sim.pending == 1
        sim.run()
        assert log == ["a"]
        assert sim.skipped_cancelled == 1

    def test_step_skips_cancelled_then_executes_next(self):
        sim = Simulator()
        log = []
        sim.schedule(5, log.append, "dead").cancel()
        sim.schedule(5, log.append, "live")
        assert sim.step() is True  # one execution, skip folded in
        assert log == ["live"]
        assert sim.skipped_cancelled == 1
        assert sim.step() is False

    def test_legacy_three_arg_trace_never_sees_cancelled_skips(self):
        calls = []
        sim = Simulator(trace=lambda now, fn, args: calls.append(fn))
        sim.schedule(5, lambda: None).cancel()
        sim.schedule(6, lambda: None)
        sim.run()
        assert len(calls) == 1
        assert sim.skipped_cancelled == 1

    def test_counters_invariant_across_run_until_boundaries(self):
        """Splitting a run at horizons never changes the totals."""

        def schedule_all(sim):
            handles = [sim.schedule(t, lambda: None) for t in (3, 6, 9, 12)]
            handles[1].cancel()
            handles[3].cancel()

        whole = Simulator()
        schedule_all(whole)
        whole.run()

        split = Simulator()
        schedule_all(split)
        for horizon in (4, 8, 20):
            split.run(until=horizon)
        assert split.executed == whole.executed == 2
        assert split.skipped_cancelled == whole.skipped_cancelled == 2
