"""Process-pool experiment engine with deterministic results.

The unit of work stays :func:`repro.experiments.runner.run_experiment`
— one (application, configuration) cell — so a cell computes the exact
same :class:`~repro.experiments.runner.ExperimentResult` whether it runs
in-process or in a worker. The engine adds, around that unit:

* dispatch by *unit*: one live simulation plus every pending cell that
  reads it, so a Baseline cell and its Oracle-Halt and Ideal cells
  simulate the Baseline once on every path (see
  :func:`~repro.experiments.runner._shared_baseline`); every other cell
  is a unit of its own;
* fan-out over ``multiprocessing`` fork workers, one unit per dispatch
  by default and, with the default task, the most costly units first,
  with result ordering that matches submission order regardless of
  dispatch or completion order;
* an on-disk :class:`~repro.experiments.cache.ResultCache` so warm
  re-runs perform zero re-simulations;
* robustness: a per-cell timeout with bounded retry, worker-crash
  isolation (a dead worker costs only its unfinished cells, which are
  retried and then recorded as structured :class:`CellFailure` records
  while the rest of the matrix completes), and a strict mode that
  raises :class:`~repro.errors.ExperimentError` instead;
* crash safety: an optional durable
  :class:`~repro.experiments.journal.RunJournal` records per-cell
  dispatch/completion/failure (fsynced per line) plus periodic
  checkpoints, a heartbeat :mod:`~repro.experiments.watchdog` kills
  and requeues workers whose beats go stale, and a cooperative
  ``preemption`` guard turns SIGTERM/SIGINT into a graceful, resumable
  stop (:class:`~repro.errors.CampaignInterrupted`);
* graceful degradation to a plain serial loop when ``workers=1``, when
  there is at most one cell to run, or when the platform cannot fork.

Determinism contract: the simulator is bit-exact, so for any worker
count the engine returns field-identical results in identical order
(``tests/test_parallel.py`` enforces this).
"""

import multiprocessing
import os
import random
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Optional

from repro.config import MachineConfig
from repro.errors import CampaignInterrupted, ConfigError, ExperimentError
from repro.experiments.cache import ResultCache, content_key
from repro.experiments.preemption import DEFAULT_DRAIN_DEADLINE_S
from repro.experiments.runner import (
    DEFAULT_SEED,
    _BASELINE_READERS,
    _baseline_key,
    _shared_baseline,
    _simulation_cost,
)
from repro.experiments.watchdog import (
    BEAT,
    BEAT_INDEX,
    HeartbeatMonitor,
    WatchdogPolicy,
    start_beat_thread,
)

#: Placeholder for a cell whose result has not been produced yet.
_PENDING = object()

#: Worker→supervisor message status tags. Public because the serve
#: worker pool speaks the same queue protocol (results plus the
#: watchdog's heartbeat messages) as the batch engine's chunk workers.
OK = "ok"
ERR = "error"

#: How long (seconds) to keep draining a finished/terminated worker's
#: queue for results that were in flight when it stopped.
_DRAIN_BUDGET_S = 0.25

_POLL_S = 0.01


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

    def key(self):
        """Content hash identifying this cell's result on disk."""
        return content_key(
            self.app, self.config, self.threads, self.seed,
            self.machine_config or MachineConfig(),
            dict(self.overrides),
            telemetry=self.telemetry,
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


class RetryBackoff:
    """Bounded exponential backoff with deterministic seeded jitter.

    ``delay_for(attempt)`` (attempt numbering starts at 1 for the first
    *retry*) returns ``min(cap, base * 2**(attempt-1))`` scaled by a
    jitter factor drawn uniformly from [0.5, 1.0) — decorrelating the
    retry times of cells that failed together (e.g. all chunks of one
    dead worker) without sacrificing reproducibility: the jitter RNG is
    seeded from ``seed`` alone, so a fixed seed yields the same retry
    schedule on every run.
    """

    def __init__(self, base_s=0.05, cap_s=2.0, seed=0):
        if base_s < 0 or cap_s < 0:
            raise ConfigError("backoff delays must be non-negative")
        if cap_s < base_s:
            raise ConfigError("backoff cap must be >= base")
        self.base_s = base_s
        self.cap_s = cap_s
        self.seed = seed
        # String seeding hashes via SHA-512 — stable across processes
        # and runs, unlike hash() of arbitrary objects.
        self._rng = random.Random("retry-backoff:{}".format(seed))

    def delay_for(self, attempt):
        """Delay in seconds before retry number ``attempt`` (>= 1)."""
        if attempt < 1:
            raise ConfigError("attempt numbering starts at 1")
        raw = min(self.cap_s, self.base_s * (2 ** (attempt - 1)))
        return raw * (0.5 + 0.5 * self._rng.random())


def run_cell(cell):
    """Default task: one ``run_experiment`` call (the bit-exact unit).

    Shared by the batch engine and the serve worker pool, so a cell
    computes the identical result whichever execution path ran it.
    """
    from repro.experiments.runner import run_experiment

    return run_experiment(
        cell.app, cell.config, threads=cell.threads, seed=cell.seed,
        machine_config=cell.machine_config, telemetry=cell.telemetry,
        **dict(cell.overrides)
    )


def record_engine_metrics(metrics, engine):
    """Fold an engine's (and its cache's) counters into a registry.

    This is the bridge the CLI run summary uses: ``engine.*`` counters
    mirror :class:`EngineStats`, ``cache.*`` counters mirror
    :meth:`~repro.experiments.cache.ResultCache.stats`, and
    ``journal.*`` counters surface the storage-degradation accounting
    (lost writes, corrupt reads) so a sick disk shows up in every run
    summary instead of only in warnings.
    """
    for name, value in engine.stats.as_dict().items():
        metrics.counter("engine.{}".format(name)).inc(value)
    if engine.cache is not None:
        for name, value in engine.cache.stats().items():
            metrics.counter("cache.{}".format(name)).inc(value)
    journal = getattr(engine, "journal", None)
    if journal is not None:
        metrics.counter("journal.write_errors").inc(journal.write_errors)
        metrics.counter("journal.corrupt_reads").inc(journal.corrupt_reads)


def _units(cells, pending, share):
    """Group pending cell indices into dispatch units, ordered by each
    unit's first cell.

    With ``share`` (the default task), the untraced ``baseline``,
    ``oracle-halt`` and ``ideal`` cells of one (app, threads, seed,
    machine config) form one unit, since they read one Baseline
    simulation; every other cell is a unit of its own.
    """
    units = {}
    for index in pending:
        cell = cells[index]
        key = index
        if share and not cell.telemetry and cell.config in _BASELINE_READERS:
            key = _baseline_key(
                cell.app, cell.threads, cell.seed, cell.machine_config
            )
        units.setdefault(key, []).append(index)
    return list(units.values())


def _longest_first(cells, units):
    """``units`` in a worker pool's dispatch order: longest estimated
    simulation first, ties in submission order.

    The pool then ends on short units, so no long unit runs alone at the
    end while the other workers idle (the three Ocean units of a
    64-thread Figure 5/6 matrix outweigh all other apps' units).
    """
    def cost(unit):
        cell = cells[unit[0]]
        return _simulation_cost(cell.app, cell.threads)

    return sorted(units, key=cost, reverse=True)


def _chunk_worker(chunk, out_queue, task_fn, beat_interval_s=None):
    """Worker body: run a chunk of units, posting each cell's result as
    it completes so a later crash/timeout only loses unfinished cells.

    ``out_queue`` is a SimpleQueue: ``put`` writes synchronously (no
    feeder thread), so once a cell's put returns, its result survives
    even an immediate SIGKILL of this worker. With ``beat_interval_s``
    set, a daemon thread posts heartbeat messages onto the same queue
    so the supervisor's watchdog can tell a wedged worker from a slow
    one.
    """
    stop_beats = None
    if beat_interval_s is not None:
        stop_beats = start_beat_thread(out_queue, beat_interval_s)
    try:
        for unit in chunk:
            with _shared_baseline():
                for index, cell in unit:
                    try:
                        result = task_fn(cell)
                    except BaseException as exc:
                        out_queue.put(
                            (index, ERR, (type(exc).__name__, str(exc)))
                        )
                    else:
                        out_queue.put((index, OK, result))
    finally:
        if stop_beats is not None:
            stop_beats.set()


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


def _fork_context():
    """The fork multiprocessing context, or None when unsupported.

    Fork is required (not just preferred): it inherits the parent's
    loaded modules and lets tests/task functions pass closures without
    pickling. Platforms without it degrade to the serial path.
    """
    try:
        if "fork" in multiprocessing.get_all_start_methods():
            return multiprocessing.get_context("fork")
    except Exception:
        pass
    return None


@dataclass
class _WorkerState:
    process: Any
    out_queue: Any
    chunk: list  # units of (index, cell) pairs, as dispatched
    remaining: dict  # index -> cell, in dispatch order
    deadline: float


class ExperimentEngine:
    """Fan experiment cells out over worker processes, cached.

    Parameters
    ----------
    workers:
        Process count. ``None`` means ``os.cpu_count()``; ``1`` (the
        default) selects the serial in-process path.
    cache:
        ``None`` (no caching), ``True`` (default directory), a path, or
        a :class:`ResultCache`.
    timeout:
        Per-cell wall-clock budget in seconds (parallel path only — a
        serial in-process cell cannot be preempted). ``None`` disables.
    retries:
        Extra attempts granted to a cell whose worker timed out or
        crashed. Cells that *raise* are deterministic and never retried.
    strict:
        When True, ``run_cells``/``run_matrix`` raise
        :class:`~repro.errors.ExperimentError` if any cell ends in
        failure; when False, failures are returned in-place as
        :class:`CellFailure` records and the rest of the matrix
        completes.
    chunksize:
        Units dispatched to a worker at a time; ``None`` means one. A
        unit is a Baseline cell plus the Oracle-Halt and Ideal cells
        that replay its simulation, or any other single cell. With the
        default task, units go out longest simulation first.
    backoff_base_s / backoff_cap_s / backoff_seed:
        Retried cells wait ``min(cap, base * 2**(retry-1))`` seconds
        (with deterministic seeded jitter, see :class:`RetryBackoff`)
        before redispatch, so a transiently-overloaded host is not
        hammered with immediate retries. ``backoff_base_s=0`` restores
        the old immediate-requeue behaviour.
    journal:
        Optional :class:`~repro.experiments.journal.RunJournal`; every
        cell's dispatch, completion, and failure is durably appended,
        with a checkpoint snapshot every ``checkpoint_every``
        completions, so a killed run can be resumed.
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
        truthy, the engine stops dispatching, drains in-flight workers
        until the guard's ``drain_deadline_s`` passes (then kills
        them), flushes the journal, and raises
        :class:`~repro.errors.CampaignInterrupted`.
    tracer:
        Optional :class:`~repro.telemetry.tracer.Tracer` receiving the
        engine-level events (``WorkerStalled``, ``CheckpointWritten``).
    """

    def __init__(self, workers=1, cache=None, timeout=None, retries=1,
                 strict=False, chunksize=None, backoff_base_s=0.05,
                 backoff_cap_s=2.0, backoff_seed=0, journal=None,
                 watchdog=None, preemption=None, tracer=None,
                 checkpoint_every=8):
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ConfigError("workers must be >= 1, got {}".format(workers))
        if timeout is not None and timeout <= 0:
            raise ConfigError("timeout must be positive or None")
        if retries < 0:
            raise ConfigError("retries must be non-negative")
        if chunksize is not None and chunksize < 1:
            raise ConfigError("chunksize must be >= 1")
        self.workers = workers
        self.cache = ResultCache.coerce(cache)
        self.timeout = timeout
        self.retries = retries
        self.strict = strict
        self.chunksize = chunksize
        RetryBackoff(backoff_base_s, backoff_cap_s, backoff_seed)  # validate
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.backoff_seed = backoff_seed
        if checkpoint_every < 1:
            raise ConfigError("checkpoint_every must be >= 1")
        self.journal = journal
        self.watchdog = WatchdogPolicy.coerce(watchdog)
        self.preemption = preemption
        self.tracer = tracer
        if journal is not None and tracer is not None:
            # Storage faults the journal degrades over ride the same
            # telemetry stream as every other engine event.
            journal.tracer = tracer
        self.checkpoint_every = checkpoint_every
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
        addressed).
        """
        cells = list(cells)
        self.stats.submitted += len(cells)
        results = [_PENDING] * len(cells)
        use_cache = self.cache is not None and task_fn is None
        self.cell_retry_delays = {}
        self._completions_since_checkpoint = 0
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
        task = task_fn or run_cell
        if pending:
            units = _units(cells, pending, share=task_fn is None)
            context = _fork_context()
            if self.workers > 1 and len(pending) > 1 and context is not None:
                if task_fn is None:
                    units = _longest_first(cells, units)
                self._run_parallel(
                    context, cells, units, results, task, use_cache
                )
            else:
                self._run_serial(cells, units, results, task, use_cache)
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
        from repro.experiments.configs import CONFIG_NAMES

        configs = tuple(configs or CONFIG_NAMES)
        unknown = [c for c in configs if c not in CONFIG_NAMES]
        if unknown:
            raise ConfigError(
                "unknown configuration(s) {}; choose from {}".format(
                    ", ".join(map(repr, unknown)), ", ".join(CONFIG_NAMES)
                )
            )
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

    def _note_completion(self, results):
        """Checkpoint cadence: a journal snapshot every N completions."""
        if self.journal is None:
            return
        self._completions_since_checkpoint += 1
        if self._completions_since_checkpoint >= self.checkpoint_every:
            self._completions_since_checkpoint = 0
            done = sum(1 for r in results if r is not _PENDING)
            self.journal.checkpoint(done, len(results), tracer=self.tracer)

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

    # ------------------------------------------------------------------
    # serial path

    def _run_serial(self, cells, units, results, task, use_cache):
        for unit in units:
            with _shared_baseline():
                for index in unit:
                    self._run_serial_cell(
                        cells[index], index, results, task, use_cache
                    )

    def _run_serial_cell(self, cell, index, results, task, use_cache):
        journal = self.journal
        if self._preempted():
            self._raise_interrupted(results)
        if journal is not None:
            journal.record_dispatched(cell_id(cell, index), index=index)
        try:
            result = task(cell)
        except Exception as exc:
            results[index] = CellFailure(
                cell=cell, kind="error",
                error_type=type(exc).__name__, message=str(exc),
            )
            self.stats.failures += 1
            if journal is not None:
                journal.record_failed_permanent(
                    cell_id(cell, index), index=index, kind="error",
                    message="{}: {}".format(type(exc).__name__, exc),
                )
        else:
            results[index] = result
            self.stats.executed += 1
            key = None
            if use_cache:
                key = cell.key()
                self._cache_store(key, result)
            if journal is not None:
                journal.record_completed(
                    cell_id(cell, index), index=index, key=key,
                )
            self._note_completion(results)

    # ------------------------------------------------------------------
    # parallel path

    def _chunks(self, cells, units):
        """Initial work queue: ``(eligible_at, chunk)`` pairs.

        A chunk is a list of ``chunksize`` units, each a list of
        ``(index, cell)`` pairs. ``eligible_at`` is a
        ``time.monotonic()`` instant before which the chunk must not be
        dispatched; fresh work is eligible immediately (0.0) and only
        backoff-delayed retries carry a future instant.
        """
        size = self.chunksize or 1
        work = deque()
        for start in range(0, len(units), size):
            work.append((0.0, [
                [(i, cells[i]) for i in unit]
                for unit in units[start:start + size]
            ]))
        return work

    def _run_parallel(self, context, cells, units, results, task,
                      use_cache):
        work = self._chunks(cells, units)
        attempts = {index: 1 for unit in units for index in unit}
        active = []
        timeout = self.timeout if self.timeout is not None else float("inf")
        journal = self.journal
        watchdog = self.watchdog
        monitor = HeartbeatMonitor(watchdog) if watchdog is not None else None
        # Fresh backoff per parallel run so the retry schedule depends
        # only on the seed and the retry sequence, not engine history.
        backoff = RetryBackoff(
            self.backoff_base_s, self.backoff_cap_s, self.backoff_seed
        )

        def record(index, status, payload):
            if results[index] is not _PENDING:
                return  # late duplicate from a terminated worker
            if status == OK:
                results[index] = payload
                self.stats.executed += 1
                key = None
                if use_cache:
                    key = cells[index].key()
                    self._cache_store(key, payload)
                if journal is not None:
                    journal.record_completed(
                        cell_id(cells[index], index), index=index, key=key,
                    )
                self._note_completion(results)
            else:
                error_type, message = payload
                results[index] = CellFailure(
                    cell=cells[index], kind="error",
                    error_type=error_type, message=message,
                    attempts=attempts[index],
                )
                self.stats.failures += 1
                if journal is not None:
                    # A raising cell is deterministic — never retried —
                    # so an error here is already permanent.
                    journal.record_failed_permanent(
                        cell_id(cells[index], index), index=index,
                        kind="error",
                        message="{}: {}".format(error_type, message),
                        attempts=attempts[index],
                        retry_delays=self.cell_retry_delays.get(index, []),
                    )

        def consume(state, message):
            index, status, payload = message
            state.remaining.pop(index, None)
            state.deadline = time.monotonic() + timeout
            record(index, status, payload)

        def poll(state):
            # Heartbeats ride the result queue; they feed the monitor
            # and are never surfaced as messages.
            try:
                while not state.out_queue.empty():
                    message = state.out_queue.get()
                    if message[0] == BEAT_INDEX and message[1] == BEAT:
                        if monitor is not None:
                            monitor.beat(state.process.pid)
                        continue
                    return message
            except (EOFError, OSError):
                pass
            return None

        def drain(state, budget):
            stop_at = time.monotonic() + budget
            while True:
                message = poll(state)
                if message is not None:
                    consume(state, message)
                elif time.monotonic() >= stop_at:
                    return
                else:
                    time.sleep(_POLL_S)

        def retire(index, cell, kind, message=""):
            if attempts[index] <= self.retries:
                delay = backoff.delay_for(attempts[index])
                self.stats.retries += 1
                self.retry_delays.append(delay)
                self.cell_retry_delays.setdefault(index, []).append(delay)
                if journal is not None:
                    journal.record_failed(
                        cell_id(cell, index), index=index, kind=kind,
                        message=message, attempt=attempts[index],
                    )
                attempts[index] += 1
                work.append((time.monotonic() + delay, [[(index, cell)]]))
            else:
                results[index] = CellFailure(
                    cell=cell, kind=kind, message=message,
                    attempts=attempts[index],
                )
                self.stats.failures += 1
                if journal is not None:
                    journal.record_failed_permanent(
                        cell_id(cell, index), index=index, kind=kind,
                        message=message, attempts=attempts[index],
                        retry_delays=self.cell_retry_delays.get(index, []),
                    )

        def launch():
            # One bounded pass: each queued chunk is examined at most
            # once, and chunks still inside their backoff window keep
            # their relative order at the back of the queue.
            now = time.monotonic()
            beat_interval = (
                watchdog.beat_interval_s if watchdog is not None else None
            )
            for _ in range(len(work)):
                if len(active) >= self.workers:
                    return
                eligible_at, chunk = work.popleft()
                if eligible_at > now:
                    work.append((eligible_at, chunk))
                    continue
                out_queue = context.SimpleQueue()
                process = context.Process(
                    target=_chunk_worker,
                    args=(chunk, out_queue, task, beat_interval),
                    daemon=True,
                )
                process.start()
                if monitor is not None:
                    monitor.register(process.pid)
                remaining = dict(pair for unit in chunk for pair in unit)
                if journal is not None:
                    for index, cell in remaining.items():
                        journal.record_dispatched(
                            cell_id(cell, index), index=index,
                            attempt=attempts[index],
                        )
                active.append(_WorkerState(
                    process=process,
                    out_queue=out_queue,
                    chunk=chunk,
                    remaining=remaining,
                    deadline=time.monotonic() + timeout,
                ))

        def stop(state):
            process = state.process
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
            if process.is_alive():
                # SIGKILL also reaps workers SIGTERM cannot reach (a
                # SIGSTOPped process leaves TERM pending forever).
                process.kill()
                process.join(timeout=1.0)
            if monitor is not None:
                monitor.forget(process.pid)

        def requeue_innocents(state):
            # Cells behind the one that struck out never started; they
            # are requeued, in their units, without an attempt charged.
            innocent = []
            for unit in state.chunk:
                unit = [
                    (i, c) for i, c in unit
                    if i in state.remaining and results[i] is _PENDING
                ]
                if unit:
                    innocent.append(unit)
            if innocent:
                work.append((0.0, innocent))

        def preempt_shutdown():
            # Stop dispatch, give in-flight workers the drain deadline
            # to finish their current cells, then kill the rest. Every
            # completion recorded during the drain reaches the cache
            # and journal as usual, so nothing finished is lost.
            work.clear()
            stop_at = time.monotonic() + self._drain_deadline_s()
            while active and time.monotonic() < stop_at:
                for state in list(active):
                    while True:
                        message = poll(state)
                        if message is None:
                            break
                        consume(state, message)
                    if not state.remaining or not state.process.is_alive():
                        state.process.join(timeout=1.0)
                        active.remove(state)
                if active:
                    time.sleep(_POLL_S)
            for state in list(active):
                stop(state)
                drain(state, _DRAIN_BUDGET_S)
                active.remove(state)
            self._raise_interrupted(results)

        try:
            launch()
            while active or work:
                if self._preempted():
                    preempt_shutdown()
                progressed = False
                for state in list(active):
                    while True:
                        message = poll(state)
                        if message is None:
                            break
                        consume(state, message)
                        progressed = True
                    if not state.remaining:
                        state.process.join(timeout=5.0)
                        if monitor is not None:
                            monitor.forget(state.process.pid)
                        active.remove(state)
                        progressed = True
                    elif not state.process.is_alive():
                        # Crashed mid-chunk: salvage queued results, then
                        # retry (or fail) the cells that never finished.
                        drain(state, _DRAIN_BUDGET_S)
                        for index, cell in list(state.remaining.items()):
                            retire(
                                index, cell, "crashed",
                                "worker exited with code {}".format(
                                    state.process.exitcode
                                ),
                            )
                        state.process.join(timeout=1.0)
                        if monitor is not None:
                            monitor.forget(state.process.pid)
                        active.remove(state)
                        progressed = True
                    elif time.monotonic() >= state.deadline:
                        # The chunk runs in order, so the first remaining
                        # cell is the one over budget; later cells never
                        # started and are requeued without penalty.
                        stuck = next(iter(state.remaining))
                        stop(state)
                        drain(state, _DRAIN_BUDGET_S)
                        if stuck in state.remaining:
                            cell = state.remaining.pop(stuck)
                            retire(
                                stuck, cell, "timeout",
                                "exceeded {:.3g}s".format(timeout),
                            )
                        requeue_innocents(state)
                        active.remove(state)
                        progressed = True
                    elif (
                        monitor is not None
                        and monitor.is_stale(state.process.pid)
                    ):
                        # Wedged worker: beats stopped (the process is
                        # frozen, not slow — a busy cell is the timeout
                        # branch's job). Kill it, strike the cell it
                        # was on, requeue the rest.
                        stale_s = monitor.staleness(state.process.pid)
                        pid = state.process.pid
                        monitor.declare_stall(pid)
                        self.stats.stalled += 1
                        if journal is not None:
                            journal.record_worker_stalled(
                                pid, sorted(state.remaining), stale_s,
                            )
                        if self.tracer is not None and self.tracer.enabled:
                            from repro.telemetry.events import WorkerStalled

                            self.tracer.emit(WorkerStalled(
                                ts=0, worker=pid,
                                cells=len(state.remaining),
                                stale_s=round(stale_s, 3),
                            ))
                        stop(state)
                        drain(state, _DRAIN_BUDGET_S)
                        stuck = next(iter(state.remaining), None)
                        if stuck is not None:
                            cell = state.remaining.pop(stuck)
                            retire(
                                stuck, cell, "stalled",
                                "no heartbeat for {:.2f}s".format(stale_s),
                            )
                        requeue_innocents(state)
                        active.remove(state)
                        progressed = True
                launch()
                if not progressed:
                    time.sleep(_POLL_S)
        finally:
            for state in active:
                stop(state)
