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
        "cd8d46dce03fbd1dab2be35369e93b6c9ce759d0afd6abff2740dba831656287"
    ),
    "fmm/thrifty-halt/plan0": (
        "696e1080d77409591f13e1a20fb005270e5e456beefbe6a063e6be22fab5021d"
    ),
    "fmm/thrifty-halt/plan1": (
        "eda4251157f41891fc4a4279e2176318f4a6ffb3bae64f0d9d4365006d3521cc"
    ),
    "fmm/thrifty-halt/plan2": (
        "a04ee3d3116e69ff07c7972e813ea4bfb2a8b0218d1720e2dca0d3e9b3bec823"
    ),
    "fmm/thrifty/plan3": (
        "b72d34d876b2a8b21cb45472298d9a5b1c391b9679c93be62ea755b3d648f5e8"
    ),
    "fmm/thrifty-halt/plan3": (
        "586dd6e3d6347f375164f6d9153a3e7c34821d6ccbffc51447030a21be3f38ca"
    ),
    "fmm/spin-then-halt": (
        "faf25a94c7e8cbe954b6ac27adb7837100d850e425cd61ee35fce080cb6b59b2"
    ),
    "radix/spin-then-halt": (
        "8bbb052868ea2a94cfbecefbf9d3c26d12dda05db9eb83482a346da629238634"
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
