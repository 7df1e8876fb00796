"""Per-layer host-time attribution, installed from outside the package.

A :class:`Ledger` keeps, for one process, the exact counters the
program already maintains (read off each finished simulation) and,
when timers are on, the host time spent in each layer of ``repro``.

Time is charged by stack switching: every wrapped entry point pushes
its layer key on entry and pops it on exit, and the interval between
two switches is charged to the key on top of the stack. A key's total
is therefore its *self* time -- its spans minus the child spans nested
inside them. Time with no span open is charged to :data:`ROOT`, the
unattributed remainder.

Generator entry points (coherence transactions, barrier waits,
``Cpu.sleep``) are wrapped per resume: the layer is on the stack only
while the generator body runs, never while the simulated process waits
in the event queue.

:func:`install` adds the cheap hooks every run uses (one call per
simulation, per cell or per durable write): they read counters and
time whole cells, and forked workers flush their totals to a file per
process after each cell. :func:`install_timers` adds the per-call and
per-resume wrappers of the traced run. Neither edits a file of the
package; both patch attributes of its classes and modules.
"""

import functools
import json
import os
import time
from collections import defaultdict

ROOT = "unattributed"
#: Waiting for work: an event loop's ``select`` or an engine's poll
#: sleep. Not host work, so kept out of the unattributed remainder.
IDLE = "idle"

#: The package's modules the report attributes time to. ``mp`` is left
#: out: no figure, service or check path runs it.
LAYERS = (
    "sim", "workloads", "machine", "coherence", "interconnect", "energy",
    "sync", "predict", "telemetry", "faults", "check", "experiments",
    "serve",
)

_clock = time.perf_counter_ns


class Ledger:
    """Counters and per-layer self time of one process."""

    def __init__(self):
        self.timers = False
        #: Directory forked workers flush their totals into (or None).
        self.flush_dir = None
        self.reset()

    def reset(self):
        """Drop every total and restart the clock (a new measurement)."""
        self.pid = os.getpid()
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(int)
        #: Identity of each schedule ``check`` ran.
        self.schedule_keys = []
        self._stack = [ROOT]
        self._mark = _clock()

    def adopt(self):
        """In a freshly forked child, forget the parent's totals."""
        if os.getpid() != self.pid:
            self.reset()

    def enter(self, key):
        now = _clock()
        self.self_ns[self._stack[-1]] += now - self._mark
        self._mark = now
        self._stack.append(key)

    def leave(self):
        now = _clock()
        self.self_ns[self._stack.pop()] += now - self._mark
        self._mark = now

    def settle(self):
        """Charge the time since the last switch to the open span."""
        now = _clock()
        self.self_ns[self._stack[-1]] += now - self._mark
        self._mark = now

    # -- counters the program keeps ----------------------------------

    def collect_runner(self, runner):
        """Read the counters of one finished simulation."""
        counts = self.counts
        system = runner.system
        sim = system.sim
        model = runner.model
        counts["workloads.runs"] += 1
        counts["workloads.instances"] += model.dynamic_instances
        counts["sync.waits"] += runner.n_threads * model.dynamic_instances
        counts["sim.events"] += sim.executed
        counts["sim.cancelled"] += sim.skipped_cancelled
        memory = system.memsys.stats
        counts["coherence.loads"] += memory.loads
        counts["coherence.ops"] += memory.loads + memory.stores + memory.rmws
        counts["coherence.misses"] += memory.misses
        counts["coherence.invalidations"] += memory.invalidations
        counts["coherence.writebacks"] += memory.writebacks
        counts["coherence.monitor_fires"] += sum(
            controller.stats_monitor_fires
            for controller in system.memsys.controllers
            if controller is not None
        )
        network = system.memsys.network.stats
        counts["interconnect.messages"] += network.messages
        counts["interconnect.hops"] += network.total_hops
        counts["machine.sleeps"] += sum(
            len(node.cpu.sleep_outcomes) for node in system.nodes
        )
        for barrier in runner.barriers.values():
            stats = getattr(barrier, "stats", None)
            if stats is not None:
                counts["sync.sleeps"] += stats.sleeps
                counts["sync.timer_wakes"] += stats.timer_wakes
                counts["sync.invalidation_wakes"] += stats.invalidation_wakes
                counts["sync.spurious_wakes"] += stats.spurious_wakes
                counts["sync.spin_fallbacks"] += stats.spin_fallbacks
                counts["sync.cutoff_disables"] += stats.cutoff_disables
            counts["sync.sleeps"] += getattr(barrier, "stats_sleeps", 0)
        predictor = runner.predictor.stats
        counts["predict.predictions"] += predictor.predictions
        counts["predict.cold_misses"] += predictor.cold_misses
        counts["predict.updates"] += predictor.updates
        counts["predict.filtered_updates"] += predictor.filtered_updates
        telemetry = system.telemetry
        if telemetry.enabled:
            counts["telemetry.emits"] += len(telemetry.events)
        chooser = sim.tie_breaker
        if chooser is not None:
            counts["check.choice_points"] += len(chooser.decisions)

    # -- cross-process totals ------------------------------------------

    def snapshot(self):
        self.settle()
        return {
            "pid": self.pid,
            "self_ns": dict(self.self_ns),
            "counts": dict(self.counts),
        }

    def flush(self):
        """Write this process's totals to ``<flush_dir>/<pid>.json``."""
        if self.flush_dir is None:
            return
        path = os.path.join(self.flush_dir, "{}.json".format(os.getpid()))
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.snapshot(), fh)
        os.replace(tmp, path)


def read_flushed(directory):
    """Every totals file a process flushed into ``directory``."""
    found = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            with open(os.path.join(directory, name)) as fh:
                found.append(json.load(fh))
    return found


def merge(snapshots):
    """Sum totals across processes: ``(self_ns, counts)``."""
    self_ns = defaultdict(int)
    counts = defaultdict(int)
    for snap in snapshots:
        for key, value in snap["self_ns"].items():
            self_ns[key] += value
        for key, value in snap["counts"].items():
            counts[key] += value
    return self_ns, counts


def layer_ns(self_ns, layer):
    """Self time of ``layer``: every key it owns (``layer`` or
    ``layer.part``)."""
    return sum(
        value for key, value in self_ns.items()
        if key == layer or key.startswith(layer + ".")
    )


# ---------------------------------------------------------------------------
# wrappers


def _timed_call(fn, key, ledger, count=None):
    """``fn`` with ``key`` on the stack; ``count`` names a call counter."""
    enter = ledger.enter
    leave = ledger.leave

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if count is not None:
            ledger.counts[count] += 1
        enter(key)
        try:
            return fn(*args, **kwargs)
        finally:
            leave()

    return wrapper


def _resumes(inner, key, enter, leave):
    """Drive ``inner`` with ``key`` on the stack only while it runs.

    Delegates ``send``/``throw``/``close`` like ``yield from``, so the
    caller sees the same yielded values, return value and exceptions.
    """
    value = None
    error = None
    while True:
        enter(key)
        try:
            if error is None:
                target = inner.send(value)
            else:
                target = inner.throw(error)
        except StopIteration as stop:
            return stop.value
        finally:
            leave()
        try:
            value = yield target
            error = None
        except GeneratorExit:
            inner.close()
            raise
        except BaseException as exc:  # noqa: BLE001 - forwarded into inner
            value = None
            error = exc


def _timed_generator(fn, key, ledger):
    enter = ledger.enter
    leave = ledger.leave

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _resumes(fn(*args, **kwargs), key, enter, leave)

    return wrapper


class _TimedAwaitable:
    """Awaitable running a coroutine with ``key`` on the stack per step."""

    def __init__(self, coro, key, ledger):
        self._coro = coro
        self._key = key
        self._ledger = ledger

    def __await__(self):
        return _resumes(
            self._coro.__await__(), self._key,
            self._ledger.enter, self._ledger.leave,
        )


class _Patches:
    """Attribute replacements, undone in reverse by :meth:`restore`."""

    def __init__(self):
        self._undo = []

    def __call__(self, owner, name, make):
        original = getattr(owner, name)
        self._undo.append((owner, name, original))
        setattr(owner, name, make(original))

    def restore(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


class _IdleClock:
    """Stand-in for a module's ``time`` whose ``sleep`` is idle time."""

    def __init__(self, clock_module, ledger):
        self._clock = clock_module
        self._sleep = _timed_call(clock_module.sleep, IDLE, ledger)

    def sleep(self, seconds):
        self._sleep(seconds)

    def __getattr__(self, name):
        return getattr(self._clock, name)


def install(ledger):
    """The hooks every run uses: counters, cell time, worker flushes.

    Returns a function that removes them again.
    """
    from repro.check import explorer
    from repro.check.tiebreak import schedule_key
    from repro.experiments import runner as runner_module
    from repro.experiments.cache import ResultCache
    from repro.experiments.journal import RunJournal
    from repro.serve.pool import WorkerPool
    from repro.serve.server import CampaignServer
    from repro.workloads.generator import WorkloadRunner

    origin = os.getpid()

    def counting(name, key):
        """Count calls; once timers are on, time them under ``key``."""
        def make(fn):
            timed = _timed_call(fn, key, ledger)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                ledger.counts[name] += 1
                return (timed if ledger.timers else fn)(*args, **kwargs)
            return wrapper
        return make

    def own_work(read):
        """Run the benchmark's own bookkeeping outside every layer."""
        if not ledger.timers:
            return read()
        ledger.enter(ROOT)
        try:
            return read()
        finally:
            ledger.leave()

    def make_run(fn):
        @functools.wraps(fn)
        def run(self):
            try:
                return fn(self)
            finally:
                own_work(lambda: ledger.collect_runner(self))
        return run

    def make_run_experiment(fn):
        @functools.wraps(fn)
        def run_experiment(*args, **kwargs):
            ledger.adopt()
            started = _clock()
            if ledger.timers:
                ledger.enter("experiments.cell")
            try:
                return fn(*args, **kwargs)
            finally:
                if ledger.timers:
                    ledger.leave()
                ledger.counts["experiments.cells"] += 1
                ledger.counts["experiments.cell_ns"] += _clock() - started
                if os.getpid() != origin:
                    own_work(ledger.flush)  # a forked worker's totals
        return run_experiment

    def make_run_schedule(fn):
        @functools.wraps(fn)
        def run_schedule(*args, **kwargs):
            result = fn(*args, **kwargs)
            key = own_work(lambda: schedule_key(result.trace))
            ledger.schedule_keys.append(key)
            ledger.counts["faults.violations"] += len(result.violations)
            return result
        return run_schedule

    _patch = _Patches()
    _patch(WorkloadRunner, "run", make_run)
    _patch(runner_module, "run_experiment", make_run_experiment)
    _patch(explorer, "run_schedule", make_run_schedule)
    _patch(ResultCache, "get", counting(
        "experiments.cache.gets", "experiments.cache.get"))
    _patch(ResultCache, "put", counting(
        "experiments.cache.puts", "experiments.cache.put"))
    _patch(RunJournal, "append", counting(
        "experiments.journal.appends", "experiments.journal.append"))
    _patch(CampaignServer, "tick", counting("serve.ticks", "serve.tick"))
    _patch(CampaignServer, "submit", counting(
        "serve.submits", "serve.submit"))
    _patch(WorkerPool, "dispatch", counting(
        "serve.pool.dispatches", "serve.pool"))
    return _patch.restore


def install_timers(ledger):
    """The traced run's per-call and per-resume layer wrappers."""
    from repro.check import harness
    from repro.check import explorer
    from repro.coherence.controller import CacheController
    from repro.coherence.protocol import MemorySystem
    from repro.energy.accounting import EnergyAccount
    from repro.experiments import export, parallel
    from repro.experiments import runner as runner_module
    from repro.faults.invariants import InvariantChecker
    from repro.interconnect.network import Network
    from repro.machine.cpu import Cpu
    from repro.machine.system import System
    from repro.predict.base import Predictor
    from repro.predict.timing import TimingDomain
    from repro.serve import server as server_module
    from repro.serve.campaigns import Campaign
    from repro.serve.pool import WorkerPool
    from repro.sim.core import Simulator
    from repro.sync.barrier import ConventionalBarrier
    from repro.sync.spin_then_sleep import SpinThenSleepBarrier
    from repro.sync.thrifty import ThriftyBarrier
    from repro.telemetry.tracer import Tracer
    from repro.workloads.base import WorkloadModel
    from repro.workloads.generator import WorkloadRunner

    import selectors

    ledger.timers = True
    _patch = _Patches()

    def calls(owner, key, *names):
        for name in names:
            _patch(owner, name, lambda fn: _timed_call(fn, key, ledger))

    def resumes(owner, key, *names):
        for name in names:
            _patch(owner, name, lambda fn: _timed_generator(fn, key, ledger))

    calls(Simulator, "sim", "run")
    calls(WorkloadRunner, "workloads", "__init__", "run")
    calls(WorkloadModel, "workloads", "generate")
    calls(System, "machine.build", "__init__")
    resumes(Cpu, "machine.sleep", "sleep")
    resumes(MemorySystem, "coherence", "load", "store", "rmw", "writeback")
    calls(
        MemorySystem, "coherence",
        "watch_line", "unwatch_line", "_deliver_invalidation",
        "_fast_mode_notify",
    )
    calls(
        CacheController, "coherence",
        "notify_invalidation", "arm_flag_monitor", "disarm_flag_monitor",
        "arm_wake_timer", "set_snooping",
    )
    resumes(CacheController, "coherence", "flush_dirty")
    calls(Network, "interconnect", "latency_ns", "delivery_ns", "send")
    calls(EnergyAccount, "energy", "merge")
    _patch(EnergyAccount, "add", lambda fn: _timed_call(
        fn, "energy", ledger, count="energy.adds"))
    for barrier in (ConventionalBarrier, ThriftyBarrier, SpinThenSleepBarrier):
        resumes(barrier, "sync", "wait")
    calls(runner_module, "sync.oracle", "oracle_rerun")
    calls(
        TimingDomain, "predict",
        "estimate", "advance", "measure_bit", "record_observed_release",
        "brts", "compute_time",
    )
    calls(
        Predictor, "predict",
        "predict", "peek", "update", "note_filtered_update", "disable",
        "is_disabled", "note_safe_episode",
    )
    calls(Tracer, "telemetry", "emit")
    calls(InvariantChecker, "faults.invariants", "check")
    calls(explorer, "check", "run_schedule")
    calls(
        harness, "check.oracles",
        "check_no_lost_wakeup", "check_release_safety",
    )
    calls(harness, "check", "annotate_window_indices")
    calls(parallel.ExperimentEngine, "experiments.engine", "run_cells")
    calls(export, "experiments", "matrix_to_records")
    calls(WorkerPool, "serve.pool", "poll")
    calls(Campaign, "serve", "records")

    def make_handler_factory(factory):
        @functools.wraps(factory)
        def make_connection_handler(*args, **kwargs):
            handler = factory(*args, **kwargs)

            async def timed_handler(reader, writer):
                return await _TimedAwaitable(
                    handler(reader, writer), "serve.http", ledger
                )

            return timed_handler

        return make_connection_handler

    _patch(server_module, "make_connection_handler", make_handler_factory)
    _patch(server_module.CampaignServer, "_h_results", _async_timed(
        "serve.results", ledger))
    calls(selectors.DefaultSelector, IDLE, "select")
    _patch(parallel, "time", lambda clock: _IdleClock(clock, ledger))



def _async_timed(key, ledger):
    def make(fn):
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            return await _TimedAwaitable(fn(*args, **kwargs), key, ledger)
        return wrapper
    return make
