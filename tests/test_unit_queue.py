"""The unit queue's grouping and failure policy, without forking.

:class:`~repro.experiments.parallel.UnitQueue` is driven by a stub pool
(``idle_workers``, ``dispatch``, ``timeout``) and hand-made
:meth:`~repro.experiments.pool.WorkerPool.poll` events, on a fake clock
for the backoff delays.
"""

import pytest

from repro.experiments import parallel
from repro.experiments.configs import CONFIG_NAMES
from repro.experiments.parallel import (
    CellFailure,
    ExperimentCell,
    RetryBackoff,
    UnitQueue,
)
from repro.experiments.pool import ERR, OK

#: One Baseline unit, in run order.
UNIT = ["baseline", "oracle-halt", "ideal"]


class StubPool:
    """The pool surface the queue uses; ``refuse`` lists pids whose
    dispatch fails."""

    def __init__(self, workers=(1,), timeout=2.5, refuse=()):
        self.workers = list(workers)
        self.timeout = timeout
        self.refuse = set(refuse)
        self.dispatched = []

    def idle_workers(self):
        return list(self.workers)

    def dispatch(self, pid, unit):
        if pid in self.refuse:
            return False
        self.dispatched.append((pid, [key for key, _ in unit]))
        return True


class Clock:
    def __init__(self):
        self.now = 100.0

    def monotonic(self):
        return self.now


@pytest.fixture
def clock(monkeypatch):
    clock = Clock()
    monkeypatch.setattr(parallel, "time", clock)
    return clock


def _queue(configs, pool=None, retries=1, backoff=None, **kwargs):
    """A queue holding fmm's ``configs`` cells, keyed by config name."""
    queue = UnitQueue(pool, retries, backoff or RetryBackoff(), **kwargs)
    for config in configs:
        queue.push(config, ExperimentCell.make("fmm", config, threads=4))
    return queue


def _keys(unit):
    return [key for key, _ in unit]


def _failure_event(kind, keys, pid=42):
    if kind == "stalled":
        return (kind, pid, keys, 1.234)
    return (kind, pid, keys)


class TestUnits:
    def test_cells_reading_one_baseline_pop_as_one_unit(self):
        queue = _queue(CONFIG_NAMES)
        assert [_keys(unit) for unit in iter(queue.pop, None)] == [
            UNIT, ["thrifty-halt"], ["thrifty"],
        ]
        assert len(queue) == 5  # popped cells run until settled

    def test_without_share_every_cell_is_a_unit(self):
        queue = _queue(CONFIG_NAMES, share=False)
        assert [_keys(unit) for unit in iter(queue.pop, None)] == [
            [config] for config in CONFIG_NAMES
        ]

    def test_refused_dispatch_keeps_the_unit_at_the_head(self):
        pool = StubPool(workers=(1, 2), refuse={1})
        queue = _queue(CONFIG_NAMES, pool)
        assert queue.dispatch() == UNIT
        assert pool.dispatched == [(2, UNIT)]
        assert _keys(queue.pop()) == ["thrifty-halt"]


class TestFailurePolicy:
    @pytest.mark.parametrize("retries", [0, 3])
    def test_raising_cell_fails_at_once(self, retries):
        queue = _queue(["baseline"], StubPool(), retries=retries)
        queue.dispatch()
        event = ("result", 1, "baseline", ERR, ("ValueError", "boom"))
        ((key, failure, final),) = queue.settle(event)
        assert (key, final) == ("baseline", True)
        assert failure == CellFailure(
            cell=ExperimentCell.make("fmm", "baseline", threads=4),
            kind="error", error_type="ValueError", message="boom",
            attempts=1,
        )
        assert len(queue) == 0
        assert queue.delays == {}

    @pytest.mark.parametrize("kind, message", [
        ("crashed", "worker 42 exited"),
        ("timeout", "exceeded 2.5s"),
        ("stalled", "no heartbeat for 1.23s"),
    ])
    def test_failure_charges_only_the_running_cell(self, kind, message):
        queue = _queue(UNIT, StubPool())
        assert queue.dispatch() == UNIT
        ((key, failure, final),) = queue.settle(_failure_event(kind, UNIT))
        assert (key, final) == ("baseline", False)
        assert (failure.kind, failure.message, failure.attempts) == (
            kind, message, 1,
        )
        assert queue.attempts == {"baseline": 2, "oracle-halt": 1,
                                  "ideal": 1}

    def test_retried_cell_waits_out_its_delay_behind_its_tail(self, clock):
        queue = _queue(CONFIG_NAMES, StubPool())
        queue.dispatch()
        queue.settle(_failure_event("crashed", UNIT))
        (delay,) = queue.delays["baseline"]
        assert _keys(queue.pop()) == ["oracle-halt", "ideal"]
        assert _keys(queue.pop()) == ["thrifty-halt"]
        assert _keys(queue.pop()) == ["thrifty"]
        clock.now += delay / 2
        assert queue.pop() is None
        clock.now += delay
        assert _keys(queue.pop()) == ["baseline"]

    @pytest.mark.parametrize("kind", ["crashed", "timeout", "stalled"])
    @pytest.mark.parametrize("retries", [0, 2])
    def test_exhausted_retries_fail_on_the_seeded_schedule(
        self, clock, kind, retries
    ):
        backoff = RetryBackoff(base_s=0.01, cap_s=0.05, seed=3)
        reference = RetryBackoff(base_s=0.01, cap_s=0.05, seed=3)
        schedule = [reference.delay_for(n) for n in range(1, retries + 1)]
        queue = _queue(["baseline"], StubPool(), retries=retries,
                       backoff=backoff)
        for attempt in range(1, retries + 2):
            clock.now += 1.0  # past any delay
            assert queue.dispatch() == ["baseline"]
            ((_, failure, final),) = queue.settle(
                _failure_event(kind, ["baseline"])
            )
            assert failure.attempts == attempt
            assert final == (attempt == retries + 1)
            if not final:
                assert queue.delays["baseline"] == schedule[:attempt]
        assert failure.kind == kind
        assert failure.attempts == retries + 1
        assert len(queue) == 0
        assert queue.delays == {}  # a settled cell leaves nothing behind

    def test_events_for_cells_not_running_are_ignored(self):
        queue = _queue(["baseline", "thrifty"], StubPool())
        assert queue.withdraw("thrifty")
        assert queue.settle(("result", 1, "thrifty", OK, "late")) == []
        assert queue.settle(("result", 1, "nope", OK, "late")) == []
        assert queue.settle(("result", 1, "baseline", OK, "early")) == []
        assert queue.settle(("crashed", 1, ["nope", "thrifty"])) == []
        assert queue.settle(("joined", 1)) == []
        assert len(queue) == 1
        assert queue.dispatch() == ["baseline"]

    def test_running_cell_cannot_be_withdrawn(self):
        queue = _queue(["baseline"], StubPool())
        queue.dispatch()
        assert queue.withdraw("baseline") is False
        assert queue.settle(("result", 1, "baseline", OK, "done")) == [
            ("baseline", "done", True),
        ]
        assert len(queue) == 0
