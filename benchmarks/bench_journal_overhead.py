"""Journaling overhead: what crash safety costs per cell.

Every journaled cell pays two fsynced appends (``dispatched``,
``completed``). Against a real simulation (tens of milliseconds and
up) that must be noise; this benchmark pins the cost down with a
trivial task so the journal itself dominates, and asserts a loose
per-cell budget that only a pathological regression (e.g. rewriting
the whole file per append) would break.
"""

import os
import statistics
import time

import pytest

from repro.experiments.journal import RunJournal
from repro.experiments.parallel import ExperimentEngine
from repro.faults.storage import (
    _write_all,
    active_storage_injector,
    append_line_durable,
)

from conftest import once

CELLS = 64
#: Generous per-cell budget: two fsyncs plus bookkeeping. Loose enough
#: for slow CI disks, tight enough to catch accidental O(n) appends.
PER_CELL_BUDGET_S = 0.05

#: Interleaved shim/raw append pairs in the seam-overhead comparison.
SEAM_APPENDS = 1500
#: The fault seams may cost at most 2% when no injector is installed.
SEAM_OVERHEAD_LIMIT = 1.02
#: Absolute per-append floor: the seam is a constant couple of Python
#: frames (~1µs); on a disk so fast that fsync stops dominating, that
#: constant is still fine even though a pure ratio would flag it.
SEAM_EPSILON_S = 2e-6


def _cells():
    return [{"name": "c{}".format(index)} for index in range(CELLS)]


def _task(cell):
    return cell["name"]


def _run(journal=None):
    engine = ExperimentEngine(journal=journal)
    return engine.run_cells(_cells(), task_fn=_task)


@pytest.fixture()
def journal(tmp_path):
    return RunJournal.create(
        {"kind": "bench-journal", "cells": CELLS},
        run_id="bench", root=tmp_path,
    )


def test_unjournaled_baseline(benchmark):
    assert once(benchmark, _run) == [c["name"] for c in _cells()]


def test_journaled_run_overhead(benchmark, journal):
    out = once(benchmark, lambda: _run(journal))
    assert out == [c["name"] for c in _cells()]
    elapsed = benchmark.stats.stats.mean
    per_cell = elapsed / CELLS
    benchmark.extra_info["per_cell_ms"] = round(per_cell * 1000, 3)
    assert per_cell < PER_CELL_BUDGET_S
    # The journal really recorded every cell (durability was bought).
    state = journal.replay()
    assert len(state.completed) == CELLS
    assert state.finished


def _raw_append(path, data):
    """What ``append_line_durable`` does when no injector is installed,
    with the ``shim_*`` seams bypassed: the same syscalls, the same
    :func:`_write_all` helper, no injector check in the way."""
    fd = os.open(str(path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        _write_all(fd, data)
        os.fsync(fd)
    finally:
        os.close(fd)


def test_disabled_seam_overhead(benchmark, tmp_path):
    """With no injector installed, the fault seams must be free.

    Compares :func:`append_line_durable` (every write and fsync routed
    through the ``shim_*`` indirection) against a seam-free copy of the
    same durable append, on the operation journals actually perform —
    the fsynced append every dispatched/completed record pays. The two
    sides are interleaved *per append* and compared by median, so disk
    latency drift (which dwarfs the seam) lands on both sides equally
    instead of deciding the verdict.
    """
    assert active_storage_injector() is None
    line = b'{"kind": "completed", "cell": "c0", "attempt": 1}\n'
    shim_path = tmp_path / "shim.jsonl"
    raw_path = tmp_path / "raw.jsonl"

    def compare():
        append_line_durable(shim_path, line)  # warm up: create files
        _raw_append(raw_path, line)
        shim_times, raw_times = [], []
        for _ in range(SEAM_APPENDS):
            start = time.perf_counter()
            _raw_append(raw_path, line)
            raw_times.append(time.perf_counter() - start)
            start = time.perf_counter()
            append_line_durable(shim_path, line)
            shim_times.append(time.perf_counter() - start)
        return statistics.median(shim_times), statistics.median(raw_times)

    shim_med, raw_med = once(benchmark, compare)
    benchmark.extra_info["shim_append_us"] = round(shim_med * 1e6, 2)
    benchmark.extra_info["raw_append_us"] = round(raw_med * 1e6, 2)
    benchmark.extra_info["overhead_pct"] = round(
        (shim_med / raw_med - 1.0) * 100, 2
    )
    assert shim_med <= raw_med * SEAM_OVERHEAD_LIMIT + SEAM_EPSILON_S, (
        "disabled fault seams cost {:.2%} over the raw syscalls "
        "(budget 2%)".format(shim_med / raw_med - 1.0)
    )
