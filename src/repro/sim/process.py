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
callback chain: the scheduler queues the :class:`Process` itself, and
its dispatch loops send into the generator and re-queue an integer
delay inline (DESIGN.md §8). Use the :class:`~repro.sim.events.Timeout`
object form only when the timeout must be cancellable or raced in an
``AnyOf``.

A :class:`Process` is itself an event: it succeeds with the generator's
return value, so processes can wait on each other (``yield other_process``).

The queued processes are also what the model checker permutes: when two
processes are due at the same timestamp they share a calendar-queue
bucket, and ``repro check`` treats that bucket as a choice point (see
:attr:`Simulator.tie_breaker`). The :attr:`Process.name` attribute is
how ``repro check`` names a thread still blocked when a run drains in
its lost-wakeup verdicts, so give long-lived processes stable,
meaningful names.
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
        # Bound methods are allocated on every attribute access; pin one
        # of each for the process's lifetime. A trace hook is shown
        # ``_resume_cb`` for every dequeue of this process; ``_wake_cb``
        # is the callback it leaves on an event it waits for.
        self._resume_cb = self._resume
        self._wake_cb = self._advance
        # Start on the next scheduling round at the current time so that
        # spawning is side-effect free at the call site.
        sim._insert(sim._now, self)

    def _resume(self, value, exception):
        """Send ``value`` into the generator, or throw ``exception``, and
        act on the outcome. The dispatch loops do the same inline for a
        queued process, with ``(None, None)``."""
        try:
            if exception is not None:
                target = self.generator.throw(exception)
            else:
                target = self.generator.send(value)
        except BaseException as stop:  # noqa: BLE001 - ends the process
            self._advance(None, stop)
            return
        self._advance(target, None)

    def _advance(self, target, stop=None):
        """Act on what the generator yielded (``target``) or raised
        (``stop``): wait for a pending event, continue past a triggered
        one, queue an integer delay, end the process, or fail it for a
        bad yield.

        The dispatch loops re-queue a non-negative int delay themselves
        and call this for every other outcome; an event calls it as
        ``_wake_cb`` with itself as ``target``. So ``target`` is never
        such a delay on entry, only after a send here. The loop (rather
        than recursion) keeps an already-triggered event — an
        uncontended lock, a zero-latency local message — continuing the
        generator immediately without growing the Python stack.
        """
        while stop is None:
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
                    self.generator.throw(error)
                except BaseException as exc:  # noqa: BLE001
                    stop = exc
                    break
                self.fail(error)
                return
            exception = target._exception
            try:
                if exception is not None:
                    target = self.generator.throw(exception)
                else:
                    value = target._value
                    if value is _PENDING:
                        if target._callbacks is None:
                            target._callbacks = self._wake_cb
                        else:
                            target.add_callback(self._wake_cb)
                        return
                    target = self.generator.send(value)
            except BaseException as exc:  # noqa: BLE001 - ends the process
                stop = exc
                break
            if target.__class__ is int and target >= 0:
                time = self.sim._now + target
                buckets = self.sim._buckets
                if time in buckets:
                    bucket = buckets[time]
                    if bucket.__class__ is list:
                        bucket.append(self)
                    else:
                        buckets[time] = [bucket, self]
                else:
                    buckets[time] = self
                    heappush(self.sim._times, time)
                return
        if isinstance(stop, StopIteration):
            self.succeed(stop.value)
        else:
            self.fail(stop)

    def __repr__(self):
        return "Process({!r}, {})".format(
            self.name, "done" if self.triggered else "running"
        )
