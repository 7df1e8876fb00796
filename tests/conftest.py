"""Shared fixtures/helpers for barrier-level tests."""

import os
import tempfile

# Keep the on-disk result cache out of the developer's real cache
# directory: a persistent cache would serve stale results to tests
# after simulator changes (its key tracks configuration and package
# version, not code content). A fresh per-session directory keeps
# every test run cold while still exercising the cache machinery.
os.environ.setdefault(
    "REPRO_CACHE_DIR", tempfile.mkdtemp(prefix="repro-test-cache-")
)

import pytest

from repro.config import MachineConfig
from repro.machine import System
from repro.predict import LastValuePredictor, TimingDomain
from repro.workloads import WorkloadRunner


def make_system(n_nodes=4, detailed=True, **overrides):
    config = MachineConfig(
        n_nodes=n_nodes, detailed_memory=detailed, **overrides
    )
    return System(config)


def make_domain(system, n_threads=None, predictor=None):
    n_threads = n_threads or system.n_nodes
    if predictor is None:
        predictor = LastValuePredictor()
    return TimingDomain(system, n_threads, predictor=predictor)


def run_phases(system, barrier, schedules, dirty_lines=0):
    """Run one barrier in a loop.

    ``schedules[t]`` is the list of compute durations (ns) thread ``t``
    executes before each barrier instance; all threads must have the
    same number of phases.
    """
    n_threads = len(schedules)
    lengths = {len(s) for s in schedules}
    assert len(lengths) == 1, "all threads need the same phase count"

    def program(node):
        for duration in schedules[node.node_id]:
            yield from node.cpu.compute(duration)
            yield from barrier.wait(node, dirty_lines=dirty_lines)

    system.run_threads(program, n_threads=n_threads)
    return barrier.trace


def staggered_schedules(n_threads, n_instances, base_ns, step_ns):
    """Thread ``t`` computes ``base + t*step`` each phase: a stable,
    perfectly repeatable imbalance (thread n-1 is always last)."""
    return [
        [base_ns + thread * step_ns] * n_instances
        for thread in range(n_threads)
    ]


@pytest.fixture
def count_simulations(monkeypatch, tmp_path):
    """Count live simulations, those of forked workers included.

    Returns a callable giving the number of ``WorkloadRunner.run`` calls
    so far. Each call appends one line to a file, and forked engine
    workers inherit the patch, so their runs are counted too.
    """
    log = tmp_path / "simulations.log"
    log.touch()
    run = WorkloadRunner.run

    def logged_run(self):
        with open(log, "a") as handle:
            handle.write(self.model.name + "\n")
        return run(self)

    monkeypatch.setattr(WorkloadRunner, "run", logged_run)
    return lambda: len(log.read_text().splitlines())
