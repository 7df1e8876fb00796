"""Fault injection for the parallel experiment engine.

A cell that raises, a cell that exceeds its timeout, and a worker that
dies mid-cell must each produce a structured :class:`CellFailure` while
the rest of the matrix completes; strict mode raises instead; bounded
retry rescues transient crashes.
"""

import os
import signal
import time

import pytest

from repro.errors import ExperimentError
from repro.experiments import runner
from repro.experiments.parallel import (
    CellFailure,
    ExperimentCell,
    ExperimentEngine,
)


def _task(cell):
    """Fault-injection task: each cell is a dict describing its fate."""
    action = cell.get("action", "ok")
    if action == "raise":
        raise ValueError("injected failure in {}".format(cell["name"]))
    if action == "hang":
        time.sleep(30)
    if action == "die":
        os.kill(os.getpid(), signal.SIGKILL)
    if action == "die-once":
        marker = cell["marker"]
        if not os.path.exists(marker):
            with open(marker, "w") as handle:
                handle.write("attempt 1\n")
            os.kill(os.getpid(), signal.SIGKILL)
    return cell["name"]


def _cells(*specs):
    return [dict(spec, name="cell{}".format(i)) for i, spec in enumerate(specs)]


_UNIT = ("baseline", "oracle-halt", "ideal")


def _unit_cells():
    """One dispatch unit: a Baseline cell and the two derived cells that
    replay its simulation, run in this order by one worker."""
    return [ExperimentCell.make("fmm", config, threads=4) for config in _UNIT]


def _doom(monkeypatch, config, fate):
    """Run ``fate`` before every ``config`` cell. The patch is in place
    before the engine forks its workers, so they inherit it."""
    run_experiment = runner.run_experiment

    def doomed(app, cell_config, **kwargs):
        if cell_config == config:
            fate()
        return run_experiment(app, cell_config, **kwargs)

    monkeypatch.setattr(runner, "run_experiment", doomed)


def _assert_reference(results, indices):
    for index in indices:
        reference = runner.run_experiment("fmm", _UNIT[index], threads=4)
        assert reference.identical(results[index])


class TestRaisingCell:
    def test_failure_recorded_and_matrix_completes(self):
        engine = ExperimentEngine(workers=2)
        out = engine.run_cells(
            _cells({}, {"action": "raise"}, {}), task_fn=_task
        )
        assert out[0] == "cell0" and out[2] == "cell2"
        failure = out[1]
        assert isinstance(failure, CellFailure)
        assert failure.kind == "error"
        assert failure.error_type == "ValueError"
        assert "injected failure" in failure.message
        assert engine.stats.failures == 1
        assert engine.stats.executed == 2

    def test_exceptions_are_not_retried(self):
        engine = ExperimentEngine(workers=2, retries=3)
        out = engine.run_cells(_cells({"action": "raise"}, {}), task_fn=_task)
        assert isinstance(out[0], CellFailure)
        assert out[0].attempts == 1
        assert engine.stats.retries == 0

    def test_strict_mode_raises_with_failures_attached(self):
        engine = ExperimentEngine(workers=2, strict=True)
        with pytest.raises(ExperimentError) as excinfo:
            engine.run_cells(
                _cells({}, {"action": "raise"}, {}), task_fn=_task
            )
        assert len(excinfo.value.failures) == 1
        assert excinfo.value.failures[0].kind == "error"

    def test_serial_path_records_failures_too(self):
        engine = ExperimentEngine(workers=1)
        out = engine.run_cells(_cells({"action": "raise"}, {}), task_fn=_task)
        assert isinstance(out[0], CellFailure)
        assert out[0].kind == "error"
        assert out[1] == "cell1"


class TestTimeout:
    def test_hung_cell_times_out_others_complete(self):
        engine = ExperimentEngine(workers=2, timeout=0.5, retries=0)
        start = time.monotonic()
        out = engine.run_cells(
            _cells({}, {"action": "hang"}, {}), task_fn=_task
        )
        elapsed = time.monotonic() - start
        assert out[0] == "cell0" and out[2] == "cell2"
        failure = out[1]
        assert isinstance(failure, CellFailure)
        assert failure.kind == "timeout"
        assert elapsed < 10  # the 30s sleep was actually cut short

    def test_innocent_chunkmates_are_rescued(self, monkeypatch):
        # A hung Baseline cell must not take down the derived cells
        # queued behind it in the same dispatch unit.
        _doom(monkeypatch, "baseline", lambda: time.sleep(30))
        engine = ExperimentEngine(workers=2, timeout=0.5, retries=0)
        out = engine.run_cells(_unit_cells())
        monkeypatch.undo()
        assert isinstance(out[0], CellFailure)
        assert out[0].kind == "timeout"
        _assert_reference(out, (1, 2))


class TestWorkerCrash:
    def test_killed_worker_isolated(self):
        engine = ExperimentEngine(workers=2, retries=0)
        out = engine.run_cells(
            _cells({}, {"action": "die"}, {}), task_fn=_task
        )
        assert out[0] == "cell0" and out[2] == "cell2"
        failure = out[1]
        assert isinstance(failure, CellFailure)
        assert failure.kind == "crashed"
        assert "exited" in failure.message

    def test_transient_crash_recovers_via_retry(self, tmp_path):
        marker = str(tmp_path / "first-attempt")
        engine = ExperimentEngine(workers=2, retries=1)
        out = engine.run_cells(
            _cells({}, {"action": "die-once", "marker": marker}),
            task_fn=_task,
        )
        assert out == ["cell0", "cell1"]
        assert engine.stats.retries == 1
        assert engine.stats.failures == 0

    def test_crash_exhausts_bounded_retries(self):
        engine = ExperimentEngine(workers=2, retries=2)
        out = engine.run_cells(_cells({"action": "die"}, {}), task_fn=_task)
        failure = out[0]
        assert isinstance(failure, CellFailure)
        assert failure.kind == "crashed"
        assert failure.attempts == 3  # initial try + two retries
        assert engine.stats.retries == 2

    def test_crash_charges_only_the_running_cell(self, monkeypatch):
        # The worker dies on its unit's Baseline cell: that cell is
        # charged, while the Oracle-Halt and Ideal cells behind it never
        # started, so they go back uncharged and still complete.
        _doom(monkeypatch, "baseline", lambda: os._exit(1))
        engine = ExperimentEngine(workers=2, retries=0)
        out = engine.run_cells(_unit_cells())
        monkeypatch.undo()
        assert isinstance(out[0], CellFailure)
        assert out[0].kind == "crashed"
        _assert_reference(out, (1, 2))

    def test_completed_chunkmates_survive_a_late_crash(self, monkeypatch):
        # Worker finishes two cells of its unit, then dies on the third:
        # the two finished results must be salvaged from the queue.
        _doom(monkeypatch, "ideal", lambda: os._exit(1))
        engine = ExperimentEngine(workers=2, retries=0)
        out = engine.run_cells(_unit_cells())
        monkeypatch.undo()
        _assert_reference(out, (0, 1))
        assert isinstance(out[2], CellFailure)
