"""Pinned outputs of the barrier wait paths the golden corpus never runs.

``test_golden_traces.py`` runs the five paper configurations without
faults, so three wait paths of :mod:`repro.sync` stay outside it:

* the thrifty barrier's degraded mode: a cut-off (thread, PC) waits
  with spin-then-Halt, and a spurious wake-up is classified and
  disarmed. FMM-16 Thrifty and Thrifty-Halt under the three plans of
  ``sample_plans(3, seed=7)`` with ``DEGRADED_THRIFTY``, and under the
  third plan at intensity 2.0, whose spurious wakes also end fallback
  Halts;
* :class:`~repro.sync.SpinThenSleepBarrier` (the Section 5.1
  spin-then-Halt policy) with ``SLEEP1_HALT`` on FMM-16 and Radix-16;
* :class:`~repro.sync.YieldingBarrier`: the over-threaded run of
  ``benchmarks/bench_ext_timeshare.py`` (32 threads on 16 CPUs).

Each cell is pinned as the SHA-256 of its execution time, energy and
time breakdowns, CPU sleep count, barrier counters, event count and
flag-monitor fires. A change that moves a digest on purpose prints the
new ones with::

    PYTHONPATH=src python tests/test_wait_path_pins.py
"""

import hashlib
import json

import pytest

from repro.config import SLEEP1_HALT, MachineConfig
from repro.experiments.configs import barrier_factory_for
from repro.experiments.runner import build_simulation
from repro.faults.chaos import DEGRADED_THRIFTY, sample_plans
from repro.machine import System, make_tokens
from repro.predict import LastValuePredictor, TimingDomain
from repro.sync import SpinThenSleepBarrier, YieldingBarrier

THREADS = 16
SEED = 1
PLANS = sample_plans(3, seed=7) + sample_plans(3, seed=7, intensity=2.0)[2:]

PINNED = {
    "fmm/thrifty/plan0": (
        "7097116828f46c520555256996c8088e831ff80293e241f541f6aecf53f9ded2"
    ),
    "fmm/thrifty/plan1": (
        "ad23a70adfa7c298697fd82880a991260fcc8485e2a63d003162832f41177abf"
    ),
    "fmm/thrifty/plan2": (
        "96bf1a48a1fe898bb240b21c35922768102fd6acd3cc605db8462e9bcd4617a9"
    ),
    "fmm/thrifty-halt/plan0": (
        "00c9bf07c06434bf791b37ea76e162b05f73282c88908754c89259b226014299"
    ),
    "fmm/thrifty-halt/plan1": (
        "eda4251157f41891fc4a4279e2176318f4a6ffb3bae64f0d9d4365006d3521cc"
    ),
    "fmm/thrifty-halt/plan2": (
        "a5ec730a7dd7cfc9094199ffd1daef06ded011dbff5a41ecd6bedf2f722dea85"
    ),
    "fmm/thrifty/plan3": (
        "bf976f290fa932ea92a8b63d9ee4a393d8da0c7b38f422fc91988cd70f3dfa2a"
    ),
    "fmm/thrifty-halt/plan3": (
        "e00d51e1fc9b1b464cf4a4c445fab110243c22d3bd8eccb33209289cecf7a9e4"
    ),
    "fmm/spin-then-halt": (
        "cb00f077ab62b30b3fb3f6bb549518e78f144bc9234ba64dc18a25fb7e4d25ce"
    ),
    "radix/spin-then-halt": (
        "fbc82dcf4a236e899b412dcf498d860e626f87cb5cef54facf27509010566598"
    ),
    "timeshare/yielding": (
        "654449d8fe5c8604bb256d1a6c07880fbbbd7c8c96f1aacfe81f0717fb370fa8"
    ),
}


def _spin_then_halt_factory(system, domain, n_threads, pc, trace):
    return SpinThenSleepBarrier(
        system, domain, n_threads, pc, sleep_state=SLEEP1_HALT, trace=trace,
    )


def _live(app, factory, plan=None):
    system, runner = build_simulation(
        app, THREADS, SEED, factory, MachineConfig(n_nodes=THREADS),
        fault_plan=plan,
    )
    runner.run()
    return system, runner.barriers


def _yielding(units_ns=400_000, iterations=8):
    """bench_ext_timeshare's over-threaded run: two threads per CPU,
    thread 0 the straggler."""
    system = System(MachineConfig(n_nodes=THREADS))
    n_threads = 2 * THREADS
    domain = TimingDomain(system, n_threads, predictor=LastValuePredictor())
    barrier = YieldingBarrier(system, domain, n_threads, pc="ts.y")
    tokens, nodes = make_tokens(system, threads_per_cpu=2)

    def program(thread_id):
        node, token = nodes[thread_id], tokens[thread_id]
        for _ in range(iterations):
            yield from token.acquire(thread_id)
            units = 2 if thread_id == 0 else 1
            yield from node.cpu.compute(units * units_ns)
            yield from barrier.wait(node, thread_id, token)
        yield from token.acquire(thread_id)
        token.release(thread_id)

    for thread_id in range(n_threads):
        system.spawn_thread(thread_id % THREADS, program(thread_id))
    system.run()
    return system, {"ts.y": barrier}


def _counters(barrier):
    stats = getattr(barrier, "stats", None)
    if stats is not None:
        return vars(stats)
    return {
        name: getattr(barrier, name)
        for name in ("stats_sleeps", "stats_yields")
        if hasattr(barrier, name)
    }


def run_case(key):
    """``(system, barriers)`` of one pinned cell."""
    app, kind, *plan = key.split("/")
    if app == "timeshare":
        return _yielding()
    if kind == "spin-then-halt":
        return _live(app, _spin_then_halt_factory)
    factory = barrier_factory_for(kind, **DEGRADED_THRIFTY)
    return _live(app, factory, PLANS[int(plan[0][len("plan"):])])


def digest(system, barriers):
    total = system.total_account()
    payload = {
        "execution_time_ns": system.execution_time_ns,
        "energy": total.energy_breakdown(),
        "time": total.time_breakdown(),
        "cpu_sleeps": sum(
            len(node.cpu.sleep_outcomes) for node in system.nodes
        ),
        "events": system.sim.executed,
        "monitor_fires": sum(
            controller.stats_monitor_fires
            for controller in system.memsys.controllers
        ),
        "barriers": {
            str(pc): _counters(barriers[pc])
            for pc in sorted(barriers, key=str)
        },
    }
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def runs():
    return {key: run_case(key) for key in PINNED}


@pytest.mark.parametrize("key", sorted(PINNED))
def test_cell_matches_pinned_digest(runs, key):
    assert digest(*runs[key]) == PINNED[key]


def test_faulted_cells_take_the_fallback_halt_and_spurious_paths(runs):
    halts = spurious = 0
    for key, (system, barriers) in runs.items():
        if "/plan" not in key:
            continue
        stats = [barrier.stats for barrier in barriers.values()]
        sleeps = sum(len(node.cpu.sleep_outcomes) for node in system.nodes)
        # Predicted sleeps count in stats.sleeps; the rest are the
        # fallback's Halts.
        halts += sleeps - sum(s.sleeps for s in stats)
        spurious += sum(s.spurious_wakes for s in stats)
    assert halts > 0
    assert spurious > 0


def test_spin_then_halt_and_yielding_cells_leave_the_spin(runs):
    for app in ("fmm", "radix"):
        _system, barriers = runs[app + "/spin-then-halt"]
        assert sum(b.stats_sleeps for b in barriers.values()) > 0
    _system, barriers = runs["timeshare/yielding"]
    assert barriers["ts.y"].stats_yields > 0


if __name__ == "__main__":
    for key in PINNED:
        print("    {!r}: {!r},".format(key, digest(*run_case(key))))
