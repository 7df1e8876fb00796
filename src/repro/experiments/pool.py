"""Watchdog-supervised fork worker pool for the engine and the service.

The batch :class:`~repro.experiments.parallel.ExperimentEngine` and the
campaign service (:mod:`repro.serve`) run their cells on one
:class:`WorkerPool` of persistent forked workers, so both execute cells
the same way:

* a job is a *unit*: an ordered list of ``(key, cell)`` pairs that a
  worker runs inside one :func:`~repro.experiments.runner.
  _shared_baseline` block, so a Baseline cell and the Oracle-Halt and
  Ideal cells replaying it simulate the Baseline once. The default task
  is :func:`run_cell`, the bit-exact unit of every execution path;
* the worker posts ``(key, OK, result)`` or ``(key, ERR, (type, msg))``
  as each cell finishes, with the watchdog's ``(BEAT_INDEX, BEAT, n)``
  heartbeats riding the same :class:`~multiprocessing.SimpleQueue`, so
  a worker that dies loses no finished result: its event lists only
  the unit's unfinished cells, in run order, and the caller's
  :class:`~repro.experiments.parallel.UnitQueue` charges only the
  first, the cell that was running;
* liveness comes from :mod:`repro.experiments.watchdog`: a worker whose
  beats go stale is killed, and so is one whose current cell overruns
  the pool's per-cell ``timeout``;
* workers can join and leave mid-run (:meth:`WorkerPool.resize`).

The caller drives everything through :meth:`WorkerPool.poll`, a
non-blocking sweep that drains queues, adjudicates liveness, and
reports what changed as plain tuples; the pool itself never touches
engine or campaign state.
"""

import multiprocessing
import os
import sys
import time

from repro.errors import ConfigError
from repro.experiments import runner
from repro.experiments.watchdog import (
    BEAT,
    BEAT_INDEX,
    HeartbeatMonitor,
    WatchdogPolicy,
    start_beat_thread,
)

#: Worker→supervisor message status tags.
OK = "ok"
ERR = "error"

#: Seconds to wait for a retired worker before escalating to kill.
_STOP_GRACE_S = 1.0


def run_cell(cell):
    """Default task: one ``run_experiment`` call (the bit-exact unit).

    Every execution path runs a cell through it, so a cell computes the
    identical result in-process, in a batch worker or in a served one.
    """
    return runner.run_experiment(
        cell.app, cell.config, threads=cell.threads, seed=cell.seed,
        machine_config=cell.machine_config, telemetry=cell.telemetry,
        **dict(cell.overrides)
    )


def _fork_context():
    """The fork multiprocessing context, or None when unsupported.

    Fork is required (not just preferred): it inherits the parent's
    loaded modules and hands workers their task without pickling, so
    a task may be a closure (cells and results still cross the
    queues pickled). Platforms without it degrade to the serial path.
    """
    try:
        if "fork" in multiprocessing.get_all_start_methods():
            return multiprocessing.get_context("fork")
    except Exception:
        pass
    return None


def _pool_worker(inbox, outbox, task, beat_interval_s, child_setup=None):
    """Worker body: run units off ``inbox`` until the None sentinel.

    Results are posted synchronously (SimpleQueue has no feeder
    thread), so once a put returns the result survives even an
    immediate SIGKILL. ``BaseException`` is caught per cell: a worker
    survives a failing cell and runs the rest of its unit.

    ``child_setup`` runs first, inside the forked child: fork copies
    every open descriptor of the supervisor, so a worker spawned while
    the server is listening would otherwise inherit the listening
    socket — and after a SIGKILL of the server, orphaned workers would
    keep the port bound, blocking the restart that is supposed to
    resume their campaigns. The server uses this hook to close its
    listener in the child.

    The worker first closes its copies of the supervisor's ends of its
    two pipes. Only the supervisor and workers forked after this one
    then hold its inbox's write end, so when the supervisor dies the
    last-forked worker reads EOF, exits, and releases its siblings'
    ends in turn: no worker outlives its supervisor.
    """
    inbox._writer.close()
    outbox._reader.close()
    if child_setup is not None:
        try:
            child_setup()
        except Exception as exc:
            # A failed cleanup must not take the worker down, but it
            # must not be invisible either (a swallowed error here once
            # hid a leaked listening socket).
            print(
                "worker {}: child_setup failed: {!r}".format(
                    os.getpid(), exc
                ),
                file=sys.stderr,
            )
    stop_beats = None
    if beat_interval_s is not None:
        stop_beats = start_beat_thread(outbox, beat_interval_s)
    try:
        for unit in iter(inbox.get, None):
            with runner._shared_baseline():
                for key, cell in unit:
                    try:
                        result = task(cell)
                    except BaseException as exc:
                        error = (type(exc).__name__, str(exc))
                        outbox.put((key, ERR, error))
                    else:
                        outbox.put((key, OK, result))
    except (EOFError, BrokenPipeError):
        pass  # the supervisor is gone: nobody is left to serve
    finally:
        if stop_beats is not None:
            stop_beats.set()


class _Worker:
    """Supervisor-side record of one worker process."""

    def __init__(self, process, inbox, outbox):
        self.process = process
        self.inbox = inbox
        self.outbox = outbox
        #: Keys of the dispatched unit's unfinished cells, in run order;
        #: the first is the cell running now (empty = idle).
        self.keys = []
        #: When the running cell overruns the pool's timeout (or None).
        self.deadline = None
        #: True once the worker was sent the retirement sentinel; its
        #: eventual death is a planned departure, not a crash.
        self.draining = False

    @property
    def pid(self):
        return self.process.pid

    def busy(self):
        return bool(self.keys)


class WorkerPool:
    """A resizable, watchdog-supervised pool of unit workers.

    Parameters
    ----------
    size:
        Initial worker count (>= 1).
    task:
        The per-cell function (defaults to :func:`run_cell`);
        injectable so tests can run sleepy or crashy tasks.
    watchdog:
        Anything :meth:`WatchdogPolicy.coerce` accepts; ``None``
        disables staleness supervision (crash detection remains).
    timeout:
        Per-cell wall-clock budget in seconds: a worker whose current
        cell runs longer is killed and reported. ``None`` disables.
    """

    def __init__(self, size, task=None, watchdog=True, timeout=None):
        if size < 1:
            raise ConfigError("pool size must be >= 1")
        self.target = size
        self.task = task or run_cell
        self.policy = WatchdogPolicy.coerce(watchdog)
        self.monitor = (
            HeartbeatMonitor(self.policy) if self.policy else None
        )
        self.timeout = timeout
        self._context = _fork_context()
        if self._context is None:
            raise ConfigError(
                "the worker pool needs the fork start method, which "
                "this platform does not support"
            )
        self._workers = {}  # pid -> _Worker
        self._started = False
        #: Optional callable run first thing inside each forked worker
        #: (e.g. the server closing its inherited listening socket).
        #: Read at spawn time, so it may be assigned after start().
        self.child_setup = None

    # -- lifecycle -----------------------------------------------------

    def start(self):
        """Spawn the initial workers; returns their pids."""
        self._started = True
        return [self._spawn() for _ in range(self.target)]

    def _spawn(self):
        inbox = self._context.SimpleQueue()
        outbox = self._context.SimpleQueue()
        beat = self.policy.beat_interval_s if self.policy else None
        process = self._context.Process(
            target=_pool_worker,
            args=(inbox, outbox, self.task, beat, self.child_setup),
            daemon=True,
        )
        process.start()
        worker = _Worker(process, inbox, outbox)
        self._workers[process.pid] = worker
        if self.monitor is not None:
            self.monitor.register(process.pid)
        return process.pid

    def stop(self):
        """Retire every worker: sentinel, grace period, then kill."""
        self.target = 0
        for worker in self._workers.values():
            self._retire(worker)
        deadline = time.monotonic() + _STOP_GRACE_S
        for worker in self._workers.values():
            worker.process.join(max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                self._kill(worker)
        for worker in self._workers.values():
            self._forget(worker)
        self._workers.clear()

    # -- sizing --------------------------------------------------------

    def resize(self, target):
        """Change the worker count; returns the pids told to retire.

        Growth happens in the next :meth:`poll` (which maintains the
        target). Shrinking retires idle workers immediately and marks
        busy ones *draining* — they finish their current unit, post
        its results, then exit on the sentinel, so a shrink never
        abandons work.
        """
        if target < 1:
            raise ConfigError("pool size must be >= 1")
        self.target = target
        retired = []
        excess = self._population() - target
        if excess <= 0:
            return retired
        candidates = sorted(
            self._workers.values(),
            key=lambda w: (w.busy(), w.pid),
        )
        for worker in candidates:
            if excess <= 0:
                break
            if worker.draining:
                continue
            self._retire(worker)
            retired.append(worker.pid)
            excess -= 1
        return retired

    def _population(self):
        """Workers counting toward the target (drainers are leaving)."""
        return sum(1 for w in self._workers.values() if not w.draining)

    def _retire(self, worker):
        worker.draining = True
        try:
            worker.inbox.put(None)
        except (OSError, ValueError):
            pass  # already dead; poll() will reap it

    def _kill(self, worker):
        process = worker.process
        try:
            process.terminate()
            process.join(0.2)
            if process.is_alive():
                # SIGKILL also reaps workers SIGTERM cannot reach (a
                # SIGSTOPped process leaves TERM pending forever).
                process.kill()
                process.join(0.2)
        except (OSError, ValueError):
            pass

    def _forget(self, worker):
        if self.monitor is not None:
            self.monitor.forget(worker.pid)
        for queue in (worker.inbox, worker.outbox):
            try:
                queue.close()
            except (AttributeError, OSError):
                pass

    # -- dispatch ------------------------------------------------------

    def idle_workers(self):
        """Pids ready for a unit, in stable (pid) order."""
        return [
            w.pid for w in sorted(
                self._workers.values(), key=lambda w: w.pid
            )
            if not w.busy() and not w.draining and w.process.is_alive()
        ]

    def dispatch(self, pid, unit):
        """Hand ``unit``, ``(key, cell)`` pairs run in order inside one
        Baseline-sharing block, to an idle worker.

        Returns False when the worker can no longer accept (died or
        started draining since :meth:`idle_workers`); the caller keeps
        the unit queued.
        """
        worker = self._workers.get(pid)
        if worker is None or worker.busy() or worker.draining:
            return False
        unit = list(unit)
        try:
            worker.inbox.put(unit)
        except (OSError, ValueError):
            return False
        worker.keys = [key for key, _ in unit]
        worker.deadline = self._deadline()
        return True

    def _deadline(self):
        if self.timeout is None:
            return None
        return time.monotonic() + self.timeout

    # -- supervision ---------------------------------------------------

    def poll(self):
        """One non-blocking supervision sweep; returns change events.

        Event tuples, in emission order (``keys`` lists a unit's
        unfinished cells in run order, the first being the one its
        worker was running; empty for an idle worker):

        * ``("result", pid, key, status, payload)`` — a worker posted
          a cell result (``status`` is ``OK``/``ERR``);
        * ``("crashed", pid, keys)`` — a worker died unplanned;
        * ``("timeout", pid, keys)`` — the running cell overran the
          pool's timeout;
        * ``("stalled", pid, keys, stale_s)`` — the watchdog declared
          the worker hung;
        * ``("left", pid, reason)`` — a worker exited; ``reason`` is
          ``"retired"`` (planned), or ``"timeout"``/``"stalled"``
          right after that verdict killed it;
        * ``("joined", pid)`` — a replacement/growth worker spawned.

        Queues are drained before liveness checks, and a dead or killed
        worker's queue once more before it is reported, so no result a
        worker posted is ever lost or reported as unfinished.
        """
        events = []
        for worker in list(self._workers.values()):
            events.extend(self._drain(worker))
        for worker in list(self._workers.values()):
            if not worker.process.is_alive():
                events.extend(self._reap(worker))
            elif worker.busy() and worker.deadline is not None and (
                time.monotonic() >= worker.deadline
            ):
                self._kill(worker)
                events.extend(self._reap(worker, ("timeout",)))
            elif (
                self.monitor is not None
                and not worker.draining
                and self.monitor.is_stale(worker.pid)
            ):
                stale_s = self.monitor.staleness(worker.pid)
                self.monitor.declare_stall(worker.pid)
                self._kill(worker)
                events.extend(self._reap(worker, ("stalled", stale_s)))
        if self._started:
            while self._population() < self.target:
                events.append(("joined", self._spawn()))
        return events

    def _drain(self, worker):
        events = []
        try:
            while not worker.outbox.empty():
                key, status, payload = worker.outbox.get()
                if key == BEAT_INDEX and status == BEAT:
                    if self.monitor is not None:
                        self.monitor.beat(worker.pid)
                    continue
                if self.monitor is not None:
                    # A result proves liveness as well as any beat.
                    self.monitor.beat(worker.pid)
                if key in worker.keys:
                    worker.keys.remove(key)
                    worker.deadline = self._deadline()
                events.append(
                    ("result", worker.pid, key, status, payload)
                )
        except (EOFError, OSError):
            pass  # queue torn down under us; liveness check follows
        return events

    def _reap(self, worker, verdict=None):
        """Remove a dead worker, reporting how it left.

        ``verdict`` is the ``("timeout",)`` or ``("stalled", stale_s)``
        the supervisor killed it for; without one, a death is a planned
        retirement only if the worker had no unfinished cells.
        """
        events = self._drain(worker)
        if verdict is not None:
            events.append((verdict[0], worker.pid, worker.keys) + verdict[1:])
            events.append(("left", worker.pid, verdict[0]))
        elif worker.draining and not worker.busy():
            events.append(("left", worker.pid, "retired"))
        else:
            events.append(("crashed", worker.pid, worker.keys))
        self._forget(worker)
        self._workers.pop(worker.pid, None)
        return events

    # -- introspection -------------------------------------------------

    def describe(self):
        """JSON-ready snapshot for the ``GET /pool`` endpoint."""
        workers = []
        for worker in sorted(self._workers.values(), key=lambda w: w.pid):
            workers.append({
                "pid": worker.pid,
                "busy": worker.busy(),
                "cell_key": worker.keys[0] if worker.keys else None,
                "draining": worker.draining,
                "alive": worker.process.is_alive(),
                "staleness_s": (
                    round(self.monitor.staleness(worker.pid), 3)
                    if self.monitor is not None else None
                ),
            })
        return {
            "target": self.target,
            "workers": workers,
            "stalls": (
                self.monitor.stalls if self.monitor is not None else 0
            ),
        }

    def __len__(self):
        return len(self._workers)
