"""Process-pool experiment engine with deterministic results.

The unit of work stays :func:`repro.experiments.runner.run_experiment`
— one (application, configuration) cell — so a cell computes the exact
same :class:`~repro.experiments.runner.ExperimentResult` whether it runs
in-process or in a worker. The engine adds, around that unit:

* dispatch by *unit* from a :class:`UnitQueue`: one live simulation
  plus every queued cell that reads it, so a Baseline cell and its
  Oracle-Halt and Ideal cells simulate the Baseline once on every path
  (see :func:`~repro.experiments.runner._shared_baseline`); every other
  cell is a unit of its own;
* fan-out over a :class:`~repro.experiments.pool.WorkerPool` of
  persistent fork workers, one unit per job and, with the default task,
  the most costly cells queued first, with result ordering that matches
  submission order regardless of dispatch or completion order;
* an on-disk :class:`~repro.experiments.cache.ResultCache` so warm
  re-runs perform zero re-simulations;
* robustness: the :class:`UnitQueue` failure policy ``repro serve``
  shares — a cell that raises fails at once; a crash, timeout or stall
  costs one attempt on the cell its worker was running, which retries
  after a seeded :class:`RetryBackoff` delay, while the rest of its
  unit is requeued uncharged — so a failing cell ends as a structured
  :class:`CellFailure` record while the rest of the matrix completes,
  or, in strict mode, raises :class:`~repro.errors.ExperimentError`;
* crash safety: an optional durable
  :class:`~repro.experiments.journal.RunJournal` records per-cell
  dispatch/completion/failure (fsynced per line), a heartbeat
  :mod:`~repro.experiments.watchdog` kills and requeues workers whose
  beats go stale, and a cooperative
  ``preemption`` guard turns SIGTERM/SIGINT into a graceful, resumable
  stop (:class:`~repro.errors.CampaignInterrupted`);
* graceful degradation to a plain serial loop when ``workers=1``, when
  there is at most one cell to run, or when the platform cannot fork.

Determinism contract: the simulator is bit-exact, so for any worker
count the engine returns field-identical results in identical order
(``tests/test_parallel.py`` enforces this).
"""

import os
import time
from dataclasses import dataclass
from typing import Any, Optional

from repro.config import MachineConfig
from repro.errors import CampaignInterrupted, ConfigError, ExperimentError
from repro.experiments.cache import ResultCache, content_key
from repro.experiments.configs import CONFIG_NAMES, check_configs
from repro.experiments.pool import ERR, OK, WorkerPool, _fork_context, run_cell
from repro.experiments import runner
from repro.experiments.preemption import DEFAULT_DRAIN_DEADLINE_S
from repro.experiments.runner import (
    DEFAULT_SEED,
    _BASELINE_READERS,
    _baseline_key,
    _shared_baseline,
    _simulation_cost,
)
from repro.experiments.watchdog import RetryBackoff, WatchdogPolicy

#: Placeholder for a cell whose result has not been produced yet.
_PENDING = object()


@dataclass(frozen=True)
class ExperimentCell:
    """One (application, configuration) unit of work.

    ``overrides`` is a sorted tuple of ``(name, value)`` pairs (the
    thrifty-policy keyword overrides of ``run_experiment``) so the cell
    is hashable and canonically ordered. ``telemetry`` asks the cell to
    trace its simulation; it participates in the content key because a
    traced result carries the event stream a plain result does not.
    """

    app: str
    config: str
    threads: int = 64
    seed: int = DEFAULT_SEED
    machine_config: Optional[MachineConfig] = None
    overrides: tuple = ()
    telemetry: bool = False

    @classmethod
    def make(cls, app, config, threads=64, seed=DEFAULT_SEED,
             machine_config=None, telemetry=False, **overrides):
        return cls(
            app=app, config=config, threads=threads, seed=seed,
            machine_config=machine_config,
            overrides=tuple(sorted(overrides.items())),
            telemetry=telemetry,
        )

    def key(self, **extra):
        """Content hash identifying this cell's result on disk; a
        subclass passes its own fields as ``extra``."""
        return content_key(
            self.app, self.config, self.threads, self.seed,
            self.machine_config or MachineConfig(),
            dict(self.overrides),
            telemetry=self.telemetry, **extra
        )

    def run(self):
        """This cell's result: one ``run_experiment`` call, looked up on
        the runner module when the cell runs."""
        return runner.run_experiment(
            self.app, self.config, threads=self.threads, seed=self.seed,
            machine_config=self.machine_config, telemetry=self.telemetry,
            **dict(self.overrides)
        )


@dataclass
class CellFailure:
    """Structured record of a cell that could not produce a result.

    ``kind`` is ``"error"`` (the cell raised), ``"timeout"`` (exceeded
    the per-cell budget), ``"crashed"`` (its worker died), or
    ``"stalled"`` (the watchdog declared its worker hung).
    """

    cell: Any
    kind: str
    error_type: str = ""
    message: str = ""
    attempts: int = 1

    @property
    def detail(self):
        """The message a journal records: ``"Type: message"`` for a
        cell that raised, else the message alone."""
        if self.error_type:
            return "{}: {}".format(self.error_type, self.message)
        return self.message

    def describe(self):
        label = getattr(self.cell, "app", None)
        if label is not None:
            label = "{}/{}".format(self.cell.app, self.cell.config)
        else:
            label = repr(self.cell)
        detail = self.error_type or self.kind
        if self.message:
            detail += ": " + self.message
        return "{} [{}, attempt {}] {}".format(
            label, self.kind, self.attempts, detail
        )


@dataclass
class EngineStats:
    """Counters for one engine lifetime (across ``run_*`` calls)."""

    submitted: int = 0
    cache_hits: int = 0
    executed: int = 0
    failures: int = 0
    retries: int = 0
    stalled: int = 0

    def as_dict(self):
        return {
            "submitted": self.submitted,
            "cache_hits": self.cache_hits,
            "executed": self.executed,
            "failures": self.failures,
            "retries": self.retries,
            "stalled": self.stalled,
        }


def record_engine_metrics(metrics, engine):
    """Fold an engine's (and its cache's) counters into a registry.

    This is the bridge the CLI run summary uses: ``engine.*`` counters
    mirror :class:`EngineStats`, ``cache.*`` counters mirror
    :meth:`~repro.experiments.cache.ResultCache.stats` (corrupt reads
    are its ``errors``), and ``journal.write_errors`` counts the
    journal's lost writes, so a sick disk shows up in every run summary
    instead of only in warnings.
    """
    for name, value in engine.stats.as_dict().items():
        metrics.counter("engine.{}".format(name)).inc(value)
    if engine.cache is not None:
        for name, value in engine.cache.stats().items():
            metrics.counter("cache.{}".format(name)).inc(value)
    journal = getattr(engine, "journal", None)
    if journal is not None:
        metrics.counter("journal.write_errors").inc(journal.write_errors)


def _unit_key(cell):
    """The Baseline simulation ``cell`` may share with the other cells
    of its dispatch unit, or None when the cell is a unit of its own.

    The untraced ``baseline``, ``oracle-halt`` and ``ideal`` cells of
    one (app, threads, seed, machine config, fault plan) read one
    Baseline simulation. Only a chaos cell carries a ``plan``.
    """
    if cell.telemetry or cell.config not in _BASELINE_READERS:
        return None
    return _baseline_key(
        cell.app, cell.threads, cell.seed, cell.machine_config,
        getattr(cell, "plan", None),
    )


class UnitQueue:
    """The cells waiting for a worker, and the one failure policy of the
    batch engine and the campaign server.

    Cells are pushed under a caller's key (the engine's cell index, the
    server's content key). A *unit* is the first eligible queued cell
    plus, with ``share``, every eligible queued cell with the same
    :func:`_unit_key`; one worker runs it in order inside one
    Baseline-sharing block. :meth:`settle` applies the policy to each
    :meth:`~repro.experiments.pool.WorkerPool.poll` event:

    * a cell that raises fails at once: the simulator is deterministic,
      so a retry would raise again;
    * a crash, timeout or stall charges one attempt to the cell its
      worker was running, which goes back to the head of the queue
      after a ``backoff`` delay until its ``retries`` run out; the
      cells of its unit behind it never started and go back uncharged.
    """

    def __init__(self, pool, retries, backoff, share=True):
        self.pool = pool
        self.retries = retries
        self.backoff = backoff
        self.share = share
        #: Attempt number of each unsettled cell's current or next run.
        self.attempts = {}
        #: Backoff delays each unsettled cell was given, in order.
        self.delays = {}
        self._cells = {}     # unsettled key -> cell
        self._shares = {}    # unsettled key -> its _unit_key
        self._ready_at = {}  # unsettled key -> time.monotonic() it may run
        self._waiting = []   # queued keys, in dispatch order
        self._running = set()

    def __len__(self):
        """Cells not yet settled, queued or running."""
        return len(self._cells)

    def push(self, key, cell):
        """Queue a fresh cell behind every waiting one."""
        self._cells[key] = cell
        self._shares[key] = _unit_key(cell) if self.share else None
        self._ready_at[key] = 0.0
        self.attempts[key] = 1
        self._waiting.append(key)

    def withdraw(self, key):
        """Drop a queued cell. Returns False, dropping nothing, when the
        cell is running: only its worker's event can settle it."""
        if key in self._running:
            return False
        if key in self._cells:
            self._waiting.remove(key)
            self._forget(key)
        return True

    def pop(self):
        """Take the next unit eligible now off the queue and mark it
        running: ``(key, cell)`` pairs in run order, or None when no
        queued cell is eligible."""
        now = time.monotonic()
        ready = [key for key in self._waiting if self._ready_at[key] <= now]
        if not ready:
            return None
        share = self._shares[ready[0]]
        unit = ready[:1] if share is None else [
            key for key in ready if self._shares[key] == share
        ]
        for key in unit:
            self._waiting.remove(key)
            self._running.add(key)
        return [(key, self._cells[key]) for key in unit]

    def dispatch(self):
        """Hand one unit to each idle worker of the pool; returns the
        keys dispatched. A unit the pool refuses stays at the head."""
        sent = []
        for pid in self.pool.idle_workers():
            unit = self.pop()
            if unit is None:
                break
            keys = [key for key, _ in unit]
            if self.pool.dispatch(pid, unit):
                sent.extend(keys)
            else:
                self._requeue(keys)
        return sent

    def settle(self, event):
        """Apply one pool event to the running cells it names.

        Returns ``(key, outcome, final)`` for each cell the event
        decides: ``outcome`` is the cell's result or a
        :class:`CellFailure`, and ``final`` is False for a failed
        attempt that will be retried. Events naming cells that are not
        running here are ignored.
        """
        kind = event[0]
        if kind == "result":
            _, _, key, status, payload = event
            if key not in self._running:
                return []
            if status == ERR:
                error_type, message = payload
                payload = CellFailure(
                    cell=self._cells[key], kind="error",
                    error_type=error_type, message=message,
                    attempts=self.attempts[key],
                )
            self._forget(key)
            return [(key, payload, True)]
        if kind == "crashed":
            message = "worker {} exited".format(event[1])
        elif kind == "timeout":
            message = "exceeded {:.3g}s".format(self.pool.timeout)
        elif kind == "stalled":
            message = "no heartbeat for {:.2f}s".format(event[3])
        else:
            return []
        # A unit runs in order, so its first unfinished cell is the one
        # the worker was running; the cells behind it never started.
        head, tail = event[2][:1], event[2][1:]
        self._requeue([key for key in tail if key in self._running])
        return [
            self._charge(key, kind, message)
            for key in head if key in self._running
        ]

    def _charge(self, key, kind, message):
        attempt = self.attempts[key]
        failure = CellFailure(
            cell=self._cells[key], kind=kind, message=message,
            attempts=attempt,
        )
        if attempt > self.retries:
            self._forget(key)
            return key, failure, True
        delay = self.backoff.delay_for(attempt)
        self.delays.setdefault(key, []).append(delay)
        self.attempts[key] = attempt + 1
        self._ready_at[key] = time.monotonic() + delay
        self._requeue([key])
        return key, failure, False

    def _requeue(self, keys):
        """Put running ``keys`` back at the head of the queue, in order."""
        self._running.difference_update(keys)
        self._waiting[:0] = keys

    def _forget(self, key):
        self._running.discard(key)
        self.delays.pop(key, None)
        for table in (self._cells, self._shares, self._ready_at,
                      self.attempts):
            del table[key]


def cell_id(cell, index):
    """Stable journal identity for one submitted cell.

    Submission order is deterministic, so the index alone identifies
    the cell across an interrupt/resume; the app/config prefix is for
    humans reading the journal. The serve subsystem journals its
    campaign cells through the same function, so batch and served
    journals replay identically.
    """
    app = getattr(cell, "app", None)
    if app is not None:
        return "{}/{}#{}".format(app, getattr(cell, "config", "?"), index)
    return "cell#{}".format(index)


class ExperimentEngine:
    """Fan experiment cells out over worker processes, cached.

    Parameters
    ----------
    workers:
        Process count. ``None`` means ``os.cpu_count()``; ``1`` (the
        default) selects the serial in-process path. A parallel
        ``run_cells`` call forks at most this many persistent workers
        (fewer when it has fewer cells to run), one
        :class:`~repro.experiments.pool.WorkerPool` per call, and
        sends each worker one unit at a time: a Baseline cell plus the
        Oracle-Halt and Ideal cells that replay its simulation, or any
        other single cell. With the default task, cells are queued
        longest simulation first. Between polls the engine waits on the
        pool's doorbell, so it settles each result, and hands its worker
        the next unit, as soon as the worker posts it.
    cache:
        ``None`` (no caching), ``True`` (default directory), a path, or
        a :class:`ResultCache`.
    timeout:
        Per-cell wall-clock budget in seconds (parallel path only — a
        serial in-process cell cannot be preempted). ``None`` disables.
    retries:
        Extra attempts granted to a cell whose worker crashed, timed
        out or stalled while running it; the cells of its unit that
        had not started go back uncharged (see :class:`UnitQueue`).
        Cells that *raise* are deterministic and never retried.
    strict:
        When True, ``run_cells``/``run_matrix`` raise
        :class:`~repro.errors.ExperimentError` if any cell ends in
        failure; when False, failures are returned in-place as
        :class:`CellFailure` records and the rest of the matrix
        completes.
    backoff_base_s / backoff_cap_s / backoff_seed:
        Retried cells wait ``min(cap, base * 2**(retry-1))`` seconds
        (with deterministic seeded jitter, see :class:`RetryBackoff`)
        before redispatch, so a transiently-overloaded host is not
        hammered with immediate retries. ``backoff_base_s=0`` makes
        every delay zero: a retried cell is requeued at once.
    journal:
        Optional :class:`~repro.experiments.journal.RunJournal`; every
        cell's dispatch, completion, and failure is durably appended,
        so a killed run can be resumed.
    watchdog:
        ``None`` (off), ``True`` (default policy), a beat interval in
        seconds, or a :class:`~repro.experiments.watchdog.
        WatchdogPolicy`. Parallel path only: workers emit heartbeats
        and a worker whose beats go stale is killed, the cell it was on
        requeued through the retry/backoff machinery (kind
        ``"stalled"`` once it strikes out).
    preemption:
        Any object with a boolean ``requested`` attribute — typically
        a :class:`~repro.experiments.preemption.PreemptionGuard`. Once
        truthy, the engine stops dispatching, lets busy workers finish
        their units until the guard's ``drain_deadline_s`` passes (then
        kills them), flushes the journal, and raises
        :class:`~repro.errors.CampaignInterrupted` unless every cell
        settled meanwhile.
    tracer:
        Optional :class:`~repro.telemetry.tracer.Tracer` receiving the
        engine-level ``WorkerStalled`` events and the journal's and
        cache's ``StorageFault`` events.
    """

    def __init__(self, workers=1, cache=None, timeout=None, retries=1,
                 strict=False, backoff_base_s=0.05,
                 backoff_cap_s=2.0, backoff_seed=0, journal=None,
                 watchdog=None, preemption=None, tracer=None):
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ConfigError("workers must be >= 1, got {}".format(workers))
        if timeout is not None and timeout <= 0:
            raise ConfigError("timeout must be positive or None")
        if retries < 0:
            raise ConfigError("retries must be non-negative")
        self.workers = workers
        self.cache = ResultCache.coerce(cache)
        self.timeout = timeout
        self.retries = retries
        self.strict = strict
        RetryBackoff(backoff_base_s, backoff_cap_s, backoff_seed)  # validate
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.backoff_seed = backoff_seed
        self.journal = journal
        self.watchdog = WatchdogPolicy.coerce(watchdog)
        self.preemption = preemption
        self.tracer = tracer
        if journal is not None and tracer is not None:
            # Storage faults the journal degrades over ride the same
            # telemetry stream as every other engine event.
            journal.tracer = tracer
        self.stats = EngineStats()
        #: Backoff delays applied to retries, in the order they were
        #: scheduled (accumulates across runs, like ``stats``).
        self.retry_delays = []
        #: Per-cell backoff history of the engine's most recent
        #: ``run_cells`` call: ``{index: [delay, ...]}``. A cell that
        #: exhausts every attempt lands in the journal as
        #: ``failed-permanent`` with exactly this list.
        self.cell_retry_delays = {}

    # ------------------------------------------------------------------
    # public API

    def run_cells(self, cells, task_fn=None):
        """Run cells, returning results in submission order.

        Each slot of the returned list is the task's result or a
        :class:`CellFailure`. With the default task (``task_fn=None``)
        the cache is consulted first and fed on success; a custom
        ``task_fn`` bypasses the cache (its inputs are not content-
        addressed) and runs each cell as a unit of its own.
        """
        cells = list(cells)
        self.stats.submitted += len(cells)
        results = [_PENDING] * len(cells)
        use_cache = self.cache is not None and task_fn is None
        pending = []
        for index, cell in enumerate(cells):
            if use_cache:
                key = cell.key()
                hit = self.cache.get(key, _PENDING)
                if hit is not _PENDING:
                    results[index] = hit
                    self.stats.cache_hits += 1
                    if self.journal is not None:
                        self.journal.record_completed(
                            cell_id(cell, index), index=index, key=key,
                            cached=True,
                        )
                    continue
            pending.append(index)
        pool = None
        if (
            self.workers > 1 and len(pending) > 1
            and _fork_context() is not None
        ):
            pool = WorkerPool(
                min(self.workers, len(pending)), task=task_fn,
                watchdog=self.watchdog, timeout=self.timeout,
            )
            if task_fn is None:
                # Longest simulation first, ties in submission order:
                # the pool then ends on short units, so no long unit
                # runs alone at the end while the other workers idle
                # (the three Ocean units of a 64-thread Figure 5/6
                # matrix outweigh all other apps' units).
                pending.sort(
                    key=lambda index: _simulation_cost(
                        cells[index].app, cells[index].threads
                    ),
                    reverse=True,
                )
        queue = UnitQueue(
            pool, self.retries,
            RetryBackoff(
                self.backoff_base_s, self.backoff_cap_s, self.backoff_seed
            ),
            share=task_fn is None,
        )
        for index in pending:
            queue.push(index, cells[index])
        self.cell_retry_delays = {}
        if pool is not None:
            self._run_parallel(queue, cells, results, use_cache)
        else:
            self._run_serial(
                queue, cells, results, task_fn or run_cell, use_cache
            )
        if self.journal is not None:
            failures = sum(
                1 for r in results if isinstance(r, CellFailure)
            )
            self.journal.record_finished(
                completed=len(results) - failures, failed=failures,
            )
        if self.strict:
            failures = [r for r in results if isinstance(r, CellFailure)]
            if failures:
                raise ExperimentError(
                    "{} of {} cells failed: {}".format(
                        len(failures), len(cells),
                        "; ".join(f.describe() for f in failures[:5]),
                    ),
                    failures=failures,
                )
        return results

    def run_matrix(self, apps, configs=None, threads=64, seed=DEFAULT_SEED,
                   machine_config=None):
        """The full sweep as ``{app: {config: result-or-failure}}``."""
        configs = check_configs(configs or CONFIG_NAMES)
        apps = tuple(apps)
        cells = [
            ExperimentCell.make(
                app, config, threads=threads, seed=seed,
                machine_config=machine_config,
            )
            for app in apps
            for config in configs
        ]
        flat = self.run_cells(cells)
        matrix = {}
        position = 0
        for app in apps:
            row = {}
            for config in configs:
                row[config] = flat[position]
                position += 1
            matrix[app] = row
        return matrix

    # ------------------------------------------------------------------
    # crash-safety plumbing shared by both paths

    def _preempted(self):
        return self.preemption is not None and bool(
            getattr(self.preemption, "requested", False)
        )

    def _drain_deadline_s(self):
        return getattr(
            self.preemption, "drain_deadline_s", DEFAULT_DRAIN_DEADLINE_S
        )

    def _raise_interrupted(self, results):
        """Journal the stop and raise the resumable interrupt."""
        done = sum(1 for r in results if r is not _PENDING)
        reason = getattr(self.preemption, "reason", "request")
        run_id = self.journal.run_id if self.journal is not None else ""
        if self.journal is not None:
            self.journal.record_interrupted(reason, done, len(results))
        raise CampaignInterrupted(
            "campaign preempted ({}) after {} of {} cells; "
            "resumable".format(reason, done, len(results)),
            run_id=run_id, completed=done, total=len(results),
            results=tuple(
                None if r is _PENDING else r for r in results
            ),
        )

    def _cache_store(self, key, value):
        """Feed the cache, surfacing a degraded (lost) store as a
        ``storage.fault`` telemetry event — the cache itself only
        counts and warns."""
        if self.cache.put(key, value):
            return
        if self.tracer is not None and self.tracer.enabled:
            from repro.telemetry.events import StorageFault

            self.tracer.emit(StorageFault(
                ts=0, op="cache-store", path=key,
                error=self.cache.last_write_error or "",
            ))

    def _settle(self, queue, cells, event, results, use_cache):
        """Record what ``queue``'s failure policy decided for the cells
        ``event`` names: results, retries and permanent failures."""
        journal = self.journal
        for index, outcome, final in queue.settle(event):
            ident = cell_id(cells[index], index)
            if not final:
                delay = queue.delays[index][-1]
                self.stats.retries += 1
                self.retry_delays.append(delay)
                self.cell_retry_delays.setdefault(index, []).append(delay)
                if journal is not None:
                    journal.record_failed(
                        ident, index=index, kind=outcome.kind,
                        message=outcome.message, attempt=outcome.attempts,
                    )
                continue
            results[index] = outcome
            if isinstance(outcome, CellFailure):
                self.stats.failures += 1
                if journal is not None:
                    journal.record_failed_permanent(
                        ident, index=index, kind=outcome.kind,
                        message=outcome.detail, attempts=outcome.attempts,
                        retry_delays=self.cell_retry_delays.get(index, []),
                    )
                continue
            self.stats.executed += 1
            key = None
            if use_cache:
                key = cells[index].key()
                self._cache_store(key, outcome)
            if journal is not None:
                journal.record_completed(ident, index=index, key=key)

    # ------------------------------------------------------------------
    # serial path

    def _run_serial(self, queue, cells, results, task, use_cache):
        for unit in iter(queue.pop, None):
            with _shared_baseline():
                for index, cell in unit:
                    if self._preempted():
                        self._raise_interrupted(results)
                    if self.journal is not None:
                        self.journal.record_dispatched(
                            cell_id(cell, index), index=index,
                        )
                    try:
                        outcome = OK, task(cell)
                    except Exception as exc:
                        outcome = ERR, (type(exc).__name__, str(exc))
                    self._settle(
                        queue, cells, ("result", None, index) + outcome,
                        results, use_cache,
                    )

    # ------------------------------------------------------------------
    # parallel path

    def _run_parallel(self, queue, cells, results, use_cache):
        """Supervise ``queue.pool`` from this process, dispatch → poll →
        settle, until every cell has a result or failure. A poll that
        finds nothing waits on the pool's doorbell, so a posted result
        is settled, and its worker given the next unit, at once."""
        pool = queue.pool
        journal = self.journal
        stop_at = None
        pool.start()
        try:
            while queue:
                if stop_at is None:
                    for index in queue.dispatch():
                        if journal is not None:
                            journal.record_dispatched(
                                cell_id(cells[index], index), index=index,
                                attempt=queue.attempts[index],
                            )
                    if self._preempted():
                        # Stop dispatch and give busy workers the drain
                        # deadline to finish their units; pool.stop()
                        # then kills the rest. Every completion settled
                        # meanwhile reaches the cache and journal as
                        # usual, so nothing finished is lost.
                        stop_at = time.monotonic() + self._drain_deadline_s()
                if stop_at is not None and (
                    len(pool.idle_workers()) == len(pool)
                    or time.monotonic() >= stop_at
                ):
                    self._raise_interrupted(results)
                events = pool.poll()
                for event in events:
                    if event[0] == "stalled":
                        self._note_stall(*event[1:])
                    self._settle(queue, cells, event, results, use_cache)
                if not events:
                    pool.wait(pool.FALLBACK_S)
        finally:
            pool.stop()

    def _note_stall(self, pid, keys, stale_s):
        """A wedged worker: its beats stopped (the process is frozen,
        not slow — a busy cell is the timeout's job)."""
        self.stats.stalled += 1
        if self.journal is not None:
            self.journal.record_worker_stalled(pid, sorted(keys), stale_s)
        if self.tracer is not None and self.tracer.enabled:
            from repro.telemetry.events import WorkerStalled

            self.tracer.emit(WorkerStalled(
                ts=0, worker=pid, cells=len(keys),
                stale_s=round(stale_s, 3),
            ))
