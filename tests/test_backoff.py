"""Deterministic bounded exponential backoff for engine retries."""

import os
import signal

import pytest

from repro.errors import ConfigError
from repro.experiments.parallel import ExperimentEngine, RetryBackoff


class TestRetryBackoff:
    def test_same_seed_same_schedule(self):
        first = RetryBackoff(seed=7)
        second = RetryBackoff(seed=7)
        assert [first.delay_for(i) for i in range(1, 9)] == [
            second.delay_for(i) for i in range(1, 9)
        ]

    def test_different_seeds_differ(self):
        one = [RetryBackoff(seed=1).delay_for(i) for i in range(1, 6)]
        two = [RetryBackoff(seed=2).delay_for(i) for i in range(1, 6)]
        assert one != two

    def test_exponential_growth_bounded_by_cap_with_jitter(self):
        backoff = RetryBackoff(base_s=0.1, cap_s=1.0, seed=0)
        for attempt in range(1, 12):
            raw = min(1.0, 0.1 * 2 ** (attempt - 1))
            delay = backoff.delay_for(attempt)
            assert 0.5 * raw <= delay < raw  # jitter factor in [0.5, 1.0)

    def test_zero_base_means_immediate_retry(self):
        backoff = RetryBackoff(base_s=0.0, cap_s=1.0, seed=0)
        assert backoff.delay_for(1) == 0.0
        assert backoff.delay_for(5) == 0.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            RetryBackoff(base_s=-0.1)
        with pytest.raises(ConfigError):
            RetryBackoff(base_s=1.0, cap_s=0.5)
        with pytest.raises(ConfigError):
            RetryBackoff().delay_for(0)

    def test_engine_validates_backoff_eagerly(self):
        with pytest.raises(ConfigError):
            ExperimentEngine(backoff_base_s=1.0, backoff_cap_s=0.1)


def _task(cell):
    if cell.get("action") == "die":
        os.kill(os.getpid(), signal.SIGKILL)
    return cell["name"]


class TestEngineBackoff:
    def _crashing_engine(self):
        # Two cells so the engine takes the parallel path (the serial
        # path would run the SIGKILL in this very process).
        engine = ExperimentEngine(
            workers=2, retries=2, backoff_base_s=0.01,
            backoff_cap_s=0.05, backoff_seed=3,
        )
        engine.run_cells(
            [{"name": "c0", "action": "die"}, {"name": "c1"}],
            task_fn=_task,
        )
        return engine

    def test_retry_delays_recorded(self):
        engine = self._crashing_engine()
        assert engine.stats.retries == 2
        assert len(engine.retry_delays) == 2
        # Deterministic: the recorded delays are exactly the schedule a
        # fresh RetryBackoff with the engine's parameters produces.
        reference = RetryBackoff(base_s=0.01, cap_s=0.05, seed=3)
        assert engine.retry_delays == [
            reference.delay_for(1), reference.delay_for(2),
        ]

    def test_retry_schedule_reproducible_across_engines(self):
        assert (
            self._crashing_engine().retry_delays
            == self._crashing_engine().retry_delays
        )

    def test_backoff_does_not_stall_healthy_cells(self):
        engine = ExperimentEngine(
            workers=2, retries=1, backoff_base_s=0.05, backoff_cap_s=0.1,
        )
        out = engine.run_cells(
            [{"name": "c0"}, {"name": "c1"}], task_fn=_task
        )
        assert out == ["c0", "c1"]
        assert engine.retry_delays == []

    def test_exhaustion_journals_permanent_failure_with_history(
        self, tmp_path
    ):
        from repro.experiments.journal import RunJournal
        from repro.experiments.parallel import CellFailure

        journal = RunJournal.create(
            {"kind": "backoff-test"}, run_id="bk", root=tmp_path,
        )
        engine = ExperimentEngine(
            workers=2, retries=2, backoff_base_s=0.01,
            backoff_cap_s=0.05, backoff_seed=3, journal=journal,
        )
        out = engine.run_cells(
            [{"name": "c0", "action": "die"}, {"name": "c1"}],
            task_fn=_task,
        )
        assert isinstance(out[0], CellFailure)
        assert out[0].attempts == 3

        state = journal.replay()
        assert set(state.failed_permanent) == {"cell#0"}
        record = state.failed_permanent["cell#0"]
        assert record["kind"] == "crashed"
        assert record["attempts"] == 3
        # The journaled backoff history is the cell's full schedule —
        # exactly what a reference RetryBackoff produces, and exactly
        # what the engine tracked per cell.
        reference = RetryBackoff(base_s=0.01, cap_s=0.05, seed=3)
        assert record["retry_delays"] == [
            reference.delay_for(1), reference.delay_for(2),
        ]
        assert record["retry_delays"] == engine.cell_retry_delays[0]
        assert state.completed_ids == {"cell#1"}
