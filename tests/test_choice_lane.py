"""The instrumented loop's choice lane, held to a choosing reference heap.

``tests/test_scheduler_properties.py`` holds the calendar queue to the
legacy ``(time, seq)`` heap under a FIFO tie-breaker. In its eight
random programs no callback that sits alone in its bucket schedules
two same-timestamp children, which is where the instrumented loop's
singleton lane hands over to a choice point. These programs do it on
purpose, and are replayed under FIFO and under forced deviations: the
realized ``(arity, choice)`` trace and the execution log must equal
those of the reference heap with the same strategy, whose candidates
at each step are the live entries at the earliest time, in schedule
order: a cancelled entry is never a candidate, even when a sibling
cancels it while it waits in the open bucket.
"""

import heapq

import pytest

from repro.check.tiebreak import ScheduleDriver
from repro.sim import Simulator
from tests.test_scheduler_properties import ReferenceScheduler, replay


class ChoosingReference(ReferenceScheduler):
    """The reference heap, with ``chooser`` picking among the live
    entries at the earliest time; a cancelled entry is dequeued, and
    counted, once every entry scheduled before it at its time has
    been."""

    def __init__(self, chooser):
        super().__init__()
        self.chooser = chooser

    def _dequeue(self, item):
        self._heap.remove(item)
        heapq.heapify(self._heap)
        handle = item[2]
        self.dequeues.append((handle.fn.cb_id, handle.cancelled))
        return handle

    def run(self):
        heap = self._heap
        while heap:
            time = heap[0][0]
            tied = sorted(item for item in heap if item[0] == time)
            if tied[0][2].cancelled:
                self._dequeue(tied[0])
                self.skipped_cancelled += 1
                continue
            live = [item for item in tied if not item[2].cancelled]
            index = 0
            if len(live) > 1:
                index = self.chooser.choose(
                    time, tuple(handle for _t, _s, handle in live)
                )
            handle = self._dequeue(live[index])
            self.now = time
            handle.fn(*handle.args)
            self.executed += 1


#: ``(roots, actions)``: callbacks 0 and 1 each sit alone in their
#: bucket and fan out same-time children (three and two); child 2 adds
#: one more to the open bucket, and 5 lands alone with one child.
FANOUT_PLAN = (
    [(5, 0), (8, 1)],
    {
        0: [("spawn", 0, 2), ("spawn", 0, 3), ("spawn", 0, 4),
            ("spawn", 4, 5)],
        1: [("spawn", 0, 6), ("spawn", 0, 7)],
        2: [("spawn", 0, 8)],
        5: [("spawn", 0, 9)],
    },
)


#: Callback 0 fans out four same-time children; the first cancels the
#: third while it waits in the open bucket behind the second.
CANCEL_PLAN = (
    [(5, 0)],
    {
        0: [("spawn", 0, 1), ("spawn", 0, 2), ("spawn", 0, 3),
            ("spawn", 0, 4)],
        1: [("cancel", 3)],
    },
)


def run_both(decisions, plan=FANOUT_PLAN):
    roots, actions = plan
    reference = ChoosingReference(ScheduleDriver(decisions))
    ref_log = replay(reference, roots, actions, ())
    reference.run()

    dequeues = []

    def hook(now, fn, args, cancelled=False):
        dequeues.append((fn.cb_id, cancelled))

    sim = Simulator(trace=hook)
    sim.tie_breaker = ScheduleDriver(decisions)
    log = replay(sim, roots, actions, ())
    sim.run()
    return (log, dequeues, sim), (ref_log, reference)


@pytest.mark.parametrize("decisions", [
    (), (2,), (1, 2, 1, 1), (0, 0, 0, 0, 1),
], ids=lambda decisions: "".join(map(str, decisions)) or "fifo")
def test_singleton_fanout_matches_choosing_reference(decisions):
    (log, dequeues, sim), (ref_log, reference) = run_both(decisions)
    assert log == ref_log
    assert dequeues == reference.dequeues
    assert sim.tie_breaker.trace == reference.chooser.trace
    assert sim.executed == reference.executed == 10
    assert sim.pending == 0


def test_fifo_fanout_is_the_legacy_order():
    (log, _dequeues, sim), _reference = run_both(())
    assert [cb_id for cb_id, _now in log] == [0, 2, 3, 4, 8, 1, 6, 7, 5, 9]
    # Three children of 0, then 3, 4 and 8 left after 2 ran, 4 and 8,
    # then the two children of 1; 5's one child is no choice point.
    assert sim.tie_breaker.arities == (3, 3, 2, 2)


def test_forced_deviation_reorders_the_fanout():
    (log, _dequeues, sim), _reference = run_both((2,))
    assert [cb_id for cb_id, _now in log][:4] == [0, 4, 2, 3]
    assert sim.tie_breaker.trace[0] == (3, 2)


@pytest.mark.parametrize("decisions", [(), (0, 1), (3, 1)],
                         ids=lambda decisions: "".join(map(str, decisions))
                         or "fifo")
def test_cancelled_entries_are_never_candidates(decisions):
    (log, dequeues, sim), (ref_log, reference) = run_both(
        decisions, plan=CANCEL_PLAN,
    )
    assert log == ref_log
    assert dequeues == reference.dequeues
    assert sim.tie_breaker.trace == reference.chooser.trace
    assert 3 not in [cb_id for cb_id, _now in log]
    assert sim.skipped_cancelled == reference.skipped_cancelled == 1
    if decisions == ():
        # 1 cancels 3, leaving 2 and 4 live: arity 2, not 3.
        assert sim.tie_breaker.arities == (4, 2)
