"""Hung-worker watchdog: heartbeats, staleness policy, supervision.

The engine's per-cell *timeout* bounds a cell that is running but too
slow — a busy loop, a pathological input. It cannot catch a worker
that stopped *executing* entirely: wedged in a native call, SIGSTOPped,
swapped to death, or frozen by a cgroup. Such a worker posts nothing,
so the timeout eventually fires — but only after the full per-cell
budget, and with no signal distinguishing "slow" from "dead".

The watchdog closes that gap. Each worker runs a tiny daemon thread
that posts a **heartbeat** onto its result queue every
``beat_interval_s``; the supervisor notes beat arrival times in a
:class:`HeartbeatMonitor` and, when a worker's beats go stale
(``stale_after_s`` without one), kills it and requeues its unfinished
cells through the engine's normal retry machinery —
:class:`RetryBackoff` delays, attempt accounting, and exclusion as
``failed-permanent`` once a cell has struck out ``retries + 1`` times.
:class:`RetryBackoff` lives here, beside the other supervision policy,
because the serve client's retries wait the same way and must not
import the engine.

A beat thread is pure liveness: it beats as long as the interpreter
schedules threads. That is exactly the right signal — the failure
modes above freeze the whole process, beat thread included, while a
pure-Python infinite loop (which still beats) stays the per-cell
timeout's job.
"""

import random
import threading
import time
from dataclasses import dataclass

from repro.errors import ConfigError

#: Queue index reserved for heartbeat messages (never a real cell).
BEAT_INDEX = -1

#: Message status tag for heartbeats (cells use "ok"/"error").
BEAT = "beat"


@dataclass(frozen=True)
class WatchdogPolicy:
    """When workers beat and when the supervisor declares them dead.

    ``stale_after_s`` must comfortably exceed ``beat_interval_s``:
    beats do not ring the pool's doorbell, so a supervisor sees them at
    its next poll, at most
    :attr:`~repro.experiments.pool.WorkerPool.FALLBACK_S` after it
    starts to wait, or later while it is busy. The default tenfold
    margin keeps false stalls out of loaded CI machines.
    """

    beat_interval_s: float = 0.1
    stale_after_s: float = 1.0

    def __post_init__(self):
        if self.beat_interval_s <= 0:
            raise ConfigError("beat interval must be positive")
        if self.stale_after_s <= self.beat_interval_s:
            raise ConfigError(
                "stale_after_s ({}) must exceed beat_interval_s ({})".format(
                    self.stale_after_s, self.beat_interval_s
                )
            )

    @classmethod
    def coerce(cls, value):
        """Normalize the engine's ``watchdog=`` argument.

        ``None``/``False`` → no watchdog; ``True`` → defaults; a number
        → that beat interval with the default tenfold staleness margin;
        a policy passes through.
        """
        if value is None or value is False:
            return None
        if value is True:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, (int, float)):
            return cls(
                beat_interval_s=float(value),
                stale_after_s=10.0 * float(value),
            )
        raise ConfigError(
            "watchdog must be None, True, a beat interval in seconds, or "
            "a WatchdogPolicy; got {!r}".format(value)
        )


class HeartbeatMonitor:
    """Supervisor-side beat bookkeeping, clock-injectable for tests.

    Workers are tracked by an opaque id (the engine uses the worker
    process's pid). The monitor only *observes*; killing and requeueing
    stay with the engine, which owns the processes.
    """

    def __init__(self, policy, clock=time.monotonic):
        self.policy = policy
        self._clock = clock
        self._last_beat = {}
        #: Total stall declarations over this monitor's lifetime.
        self.stalls = 0

    def register(self, worker):
        """Start tracking a worker; registration counts as a beat (a
        freshly forked worker has had no chance to beat yet)."""
        self._last_beat[worker] = self._clock()

    def beat(self, worker):
        self._last_beat[worker] = self._clock()

    def forget(self, worker):
        self._last_beat.pop(worker, None)

    def staleness(self, worker):
        """Seconds since the worker's last beat (0.0 if untracked)."""
        last = self._last_beat.get(worker)
        if last is None:
            return 0.0
        return max(0.0, self._clock() - last)

    def is_stale(self, worker):
        return self.staleness(worker) >= self.policy.stale_after_s

    def declare_stall(self, worker):
        """Record one stall verdict and stop tracking the worker."""
        self.stalls += 1
        self.forget(worker)


def start_beat_thread(out_queue, interval_s):
    """Worker-side heartbeat: post ``(BEAT_INDEX, BEAT, n)`` onto the
    result queue every ``interval_s`` until the returned event is set.

    The thread is a daemon, so a worker that exits on its retirement
    sentinel does not join it; the supervisor ignores beats from
    workers it has already retired.
    """
    stop = threading.Event()

    def loop():
        count = 0
        while not stop.wait(interval_s):
            count += 1
            try:
                out_queue.put((BEAT_INDEX, BEAT, count))
            except Exception:
                return  # queue torn down; the worker is exiting anyway

    thread = threading.Thread(target=loop, daemon=True, name="heartbeat")
    thread.start()
    return stop


class RetryBackoff:
    """Bounded exponential backoff with deterministic seeded jitter.

    ``delay_for(attempt)`` (attempt numbering starts at 1 for the first
    *retry*) returns ``min(cap, base * 2**(attempt-1))`` scaled by a
    jitter factor drawn uniformly from [0.5, 1.0) — decorrelating the
    retry times of cells that failed together (e.g. the unfinished
    cells of one dead worker) without sacrificing reproducibility: the
    jitter RNG is seeded from ``seed`` alone, so a fixed seed yields the
    same retry schedule on every run.
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
