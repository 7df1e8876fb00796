"""The hung-worker watchdog: policy, monitor, and engine supervision.

The engine-integration tests wedge a real worker with SIGSTOP — the
one failure mode the per-cell timeout cannot distinguish from "slow" —
and assert the supervisor kills it, requeues its cell through the
normal retry machinery, and (with a journal) records the stall.
"""

import os
import signal

import pytest

from repro.errors import ConfigError
from repro.experiments.journal import RunJournal
from repro.experiments.parallel import CellFailure, ExperimentEngine
from repro.experiments.watchdog import (
    BEAT,
    BEAT_INDEX,
    HeartbeatMonitor,
    WatchdogPolicy,
    start_beat_thread,
)


class TestWatchdogPolicy:
    def test_defaults_are_valid(self):
        policy = WatchdogPolicy()
        assert policy.stale_after_s > policy.beat_interval_s

    def test_validation(self):
        with pytest.raises(ConfigError):
            WatchdogPolicy(beat_interval_s=0.0)
        with pytest.raises(ConfigError):
            WatchdogPolicy(beat_interval_s=1.0, stale_after_s=0.5)

    def test_coerce_off(self):
        assert WatchdogPolicy.coerce(None) is None
        assert WatchdogPolicy.coerce(False) is None

    def test_coerce_true_and_passthrough(self):
        assert WatchdogPolicy.coerce(True) == WatchdogPolicy()
        policy = WatchdogPolicy(beat_interval_s=0.2, stale_after_s=3.0)
        assert WatchdogPolicy.coerce(policy) is policy

    def test_coerce_number_uses_tenfold_margin(self):
        policy = WatchdogPolicy.coerce(0.25)
        assert policy.beat_interval_s == 0.25
        assert policy.stale_after_s == 2.5

    def test_coerce_rejects_garbage(self):
        with pytest.raises(ConfigError):
            WatchdogPolicy.coerce("fast")


class TestHeartbeatMonitor:
    def _monitor(self):
        clock = {"now": 100.0}
        monitor = HeartbeatMonitor(
            WatchdogPolicy(beat_interval_s=0.1, stale_after_s=1.0),
            clock=lambda: clock["now"],
        )
        return monitor, clock

    def test_registration_counts_as_a_beat(self):
        monitor, clock = self._monitor()
        monitor.register("w1")
        assert monitor.staleness("w1") == 0.0
        clock["now"] += 0.5
        assert monitor.staleness("w1") == 0.5
        assert not monitor.is_stale("w1")

    def test_beat_resets_staleness(self):
        monitor, clock = self._monitor()
        monitor.register("w1")
        clock["now"] += 0.9
        monitor.beat("w1")
        clock["now"] += 0.9
        assert not monitor.is_stale("w1")
        clock["now"] += 0.2
        assert monitor.is_stale("w1")

    def test_untracked_worker_never_stale(self):
        monitor, clock = self._monitor()
        clock["now"] += 100.0
        assert monitor.staleness("ghost") == 0.0
        assert not monitor.is_stale("ghost")

    def test_declare_stall_counts_and_forgets(self):
        monitor, clock = self._monitor()
        monitor.register("w1")
        clock["now"] += 2.0
        assert monitor.is_stale("w1")
        monitor.declare_stall("w1")
        assert monitor.stalls == 1
        assert not monitor.is_stale("w1")  # no longer tracked


class TestBeatThread:
    def test_beats_arrive_and_stop(self):
        import multiprocessing
        import time

        queue = multiprocessing.get_context("fork").SimpleQueue()
        stop = start_beat_thread(queue, 0.02)
        deadline = time.monotonic() + 2.0
        while queue.empty() and time.monotonic() < deadline:
            time.sleep(0.01)
        stop.set()
        assert not queue.empty()
        index, status, count = queue.get()
        assert (index, status) == (BEAT_INDEX, BEAT)
        assert count >= 1


def _stall_once(cell):
    """SIGSTOP the worker on the first attempt; succeed on the retry."""
    flag = cell.get("flag")
    if flag is not None and not os.path.exists(flag):
        with open(flag, "w") as fh:
            fh.write("stalled")
        os.kill(os.getpid(), signal.SIGSTOP)
    return cell["name"]


def _stall_always(cell):
    if cell.get("action") == "hang":
        os.kill(os.getpid(), signal.SIGSTOP)
    return cell["name"]


_FAST_WATCHDOG = WatchdogPolicy(beat_interval_s=0.02, stale_after_s=0.3)


class TestEngineSupervision:
    def test_stalled_worker_killed_and_cell_retried(self, tmp_path):
        engine = ExperimentEngine(
            workers=2, retries=2, backoff_base_s=0.0,
            watchdog=_FAST_WATCHDOG,
        )
        out = engine.run_cells(
            [
                {"name": "c0", "flag": str(tmp_path / "flag")},
                {"name": "c1"},
            ],
            task_fn=_stall_once,
        )
        assert out == ["c0", "c1"]
        assert engine.stats.stalled == 1
        assert engine.stats.retries == 1

    def test_stall_exhausts_retries_into_structured_failure(self):
        engine = ExperimentEngine(
            workers=2, retries=0, watchdog=_FAST_WATCHDOG,
        )
        out = engine.run_cells(
            [{"name": "c0", "action": "hang"}, {"name": "c1"}],
            task_fn=_stall_always,
        )
        assert out[1] == "c1"
        failure = out[0]
        assert isinstance(failure, CellFailure)
        assert failure.kind == "stalled"
        assert "no heartbeat" in failure.message

    def test_stall_is_journaled(self, tmp_path):
        journal = RunJournal.create(
            {"kind": "watchdog-test"}, run_id="wd", root=tmp_path,
        )
        engine = ExperimentEngine(
            workers=2, retries=1, backoff_base_s=0.0,
            watchdog=_FAST_WATCHDOG, journal=journal,
        )
        out = engine.run_cells(
            [
                {"name": "c0", "flag": str(tmp_path / "flag")},
                {"name": "c1"},
            ],
            task_fn=_stall_once,
        )
        assert out == ["c0", "c1"]
        state = journal.replay()
        assert state.stalls == 1
        assert state.finished
        assert state.completed_ids == {"cell#0", "cell#1"}

    def test_healthy_workers_unaffected_by_watchdog(self):
        engine = ExperimentEngine(workers=2, watchdog=_FAST_WATCHDOG)
        out = engine.run_cells(
            [{"name": "c0"}, {"name": "c1"}], task_fn=_stall_always,
        )
        assert out == ["c0", "c1"]
        assert engine.stats.stalled == 0

    def test_engine_coerces_watchdog_argument(self):
        engine = ExperimentEngine(watchdog=0.5)
        assert engine.watchdog == WatchdogPolicy(
            beat_interval_s=0.5, stale_after_s=5.0,
        )
        with pytest.raises(ConfigError):
            ExperimentEngine(watchdog="always")
