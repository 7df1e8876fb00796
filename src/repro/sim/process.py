"""Generator-based simulation processes.

A process is a generator that yields :class:`~repro.sim.events.Event`
objects — or, as a fast path for the overwhelmingly common "just wait"
case, a plain non-negative ``int`` meaning "resume after this many
nanoseconds". The process suspends until the yielded event triggers (or
the delay elapses); the event's value is sent back into the generator
(``None`` for integer delays, matching a value-less ``Timeout``).
Subroutines compose with ``yield from`` and their return value flows
back to the caller (CPython 3.11+ resumes a delegation chain with cheap
C-level frame hops, so nesting depth costs little — an explicit
generator-stack trampoline was tried and measured *slower* than
``yield from`` here).

The integer form is semantically identical to ``yield sim.timeout(n)``
but skips the Timeout/Handle allocation and the succeed→dispatch→wake
callback chain: the scheduler queues the process's resume method
directly. Use the :class:`~repro.sim.events.Timeout` object form only
when the timeout must be cancellable or raced in a combinator
(``AnyOf``/``AllOf``).

A :class:`Process` is itself an event: it succeeds with the generator's
return value, so processes can wait on each other (``yield other_process``).

The pinned resume callbacks are also what the model checker permutes:
when two processes are due at the same timestamp, their queued resume
methods share a calendar-queue bucket, and ``repro check`` treats that
bucket as a choice point (see :attr:`Simulator.tie_breaker`). The
:attr:`Process.name` attribute is how ``repro check`` names a thread
still blocked when a run drains in its lost-wakeup verdicts, so give
long-lived processes stable, meaningful names.
"""

from heapq import heappush

from repro.errors import ProcessError
from repro.sim.events import _PENDING, Event


class Process(Event):
    """Drives a generator to completion over simulated time."""

    __slots__ = ("generator", "name", "_resume_cb", "_wake_cb")

    def __init__(self, sim, generator, name=None):
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise ProcessError(
                "spawn() requires a generator, got {!r}".format(generator)
            )
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # Bound methods are allocated on every attribute access; the
        # resume/wake callbacks are re-queued once per yield, so pin one
        # instance of each for the process's lifetime.
        self._resume_cb = self._resume
        self._wake_cb = self._wake
        # Start on the next scheduling round at the current time so that
        # spawning is side-effect free at the call site.
        sim._insert(sim._now, self._resume_cb)

    def _resume(self, value, exception):
        # The loop (rather than recursion through the event-callback
        # machinery) is the hot path: yielding an already-triggered
        # event — an uncontended lock, a zero-latency local message —
        # continues the generator immediately, exactly as the legacy
        # add_callback-on-triggered dispatch did, without growing the
        # Python stack.
        generator = self.generator
        while True:
            try:
                if exception is not None:
                    target = generator.throw(exception)
                    exception = None
                else:
                    target = generator.send(value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:  # noqa: BLE001 - propagate into event
                self.fail(exc)
                return
            if target.__class__ is int and target >= 0:
                # Inlined Simulator._insert — this is the single hottest
                # statement in the simulator.
                sim = self.sim
                time = sim._now + target
                buckets = sim._buckets
                bucket = buckets.get(time)
                if bucket is None:
                    buckets[time] = self._resume_cb
                    heappush(sim._times, time)
                elif bucket.__class__ is list:
                    bucket.append(self._resume_cb)
                else:
                    buckets[time] = [bucket, self._resume_cb]
                return
            if not isinstance(target, Event):
                error = ProcessError(
                    "process {!r} yielded {!r}; processes must yield Event "
                    "instances or non-negative int delays".format(
                        self.name, target
                    )
                )
                # Deliver the error into the generator so it can clean
                # up, then record the failure on the process event.
                try:
                    generator.throw(error)
                except StopIteration as stop:
                    self.succeed(stop.value)
                    return
                except BaseException as exc:  # noqa: BLE001
                    self.fail(exc)
                    return
                self.fail(error)
                return
            exception = target._exception
            if exception is not None:
                value = None
                continue
            value = target._value
            if value is _PENDING:
                target._callbacks.append(self._wake_cb)
                return

    def _wake(self, event):
        # Direct slot reads: the event is triggered by contract (only
        # triggered events run their callbacks), so the property
        # guards of .value/.exception are dead weight here.
        exception = event._exception
        if exception is not None:
            self._resume(None, exception)
        else:
            self._resume(event._value, None)

    def __repr__(self):
        return "Process({!r}, {})".format(
            self.name, "done" if self.triggered else "running"
        )
