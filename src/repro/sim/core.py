"""The event loop at the heart of the simulator.

The :class:`Simulator` owns a **bucketed calendar queue**: callbacks are
grouped into per-timestamp buckets (a dict keyed by absolute time), and
a small heap orders only the *distinct* timestamps. Within a bucket,
plain list order is execution order — the global schedule-call order the
legacy single-heap scheduler encoded with ``(time, seq)`` tuples — so
tie-breaking and cancellation semantics are exactly those of the old
heap, at a fraction of the cost: the common case (another callback at an
already-known timestamp, which barrier simultaneity makes the dominant
pattern) is one dict probe and one list append instead of an O(log n)
sift, and dequeue is an index increment instead of a heap pop.

Three kinds of entry live in a bucket:

* a :class:`Handle` — the cancellable record returned by
  :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at`;
* a :class:`~repro.sim.process.Process` — a generator process due to
  resume, queued by a plain integer-delay yield (``yield 40``) or by
  :meth:`Simulator.spawn`. Both dispatch loops send ``None`` into its
  generator themselves and re-queue a non-negative int delay inline;
  every other outcome goes to ``Process._advance``;
* a bare callable — invoked as ``entry(None, None)``, one leg of the
  coherence layer's invalidation fan-out.

Processes and bare callables cannot be cancelled, so the dispatch loops
skip the cancellation check for them.

A bucket holding a single entry is stored as the entry itself rather
than a one-element list (most timestamps only ever receive one
callback); it is promoted to a list on the second insertion at the same
time. Entries are never lists, so ``bucket.__class__ is list``
distinguishes the representations.

Two loops dispatch the queue. :meth:`Simulator.run` with no horizon,
event budget, trace hook or tie-breaker — the only mode the campaign
runner uses — is a full drain with no per-callback checks that walks a
list bucket with a head cursor. Every other mode (``until``,
``max_events``, a trace hook, a :attr:`Simulator.tie_breaker`, and
:meth:`Simulator.step`) runs the one instrumented loop, which takes a
singleton as the drain does and pops each entry off a list bucket as it
dispatches it.

Everything else in the package — coherence transactions, CPU sleep
transitions, barrier releases — is expressed as callbacks or as
generator processes resumed by callbacks.
"""

import inspect
import operator
from heapq import heappop, heappush

from repro.errors import SchedulingError
from repro.sim.events import Event, Timeout
from repro.sim.process import Process

#: The argument tuple bare callables are invoked with, and the one a
#: trace hook is shown for a queued process: ``_resume(None, None)``
#: means "no value, no exception".
_FAST_ARGS = (None, None)


class Handle:
    """A cancellable reference to one scheduled callback."""

    __slots__ = ("time", "fn", "args", "cancelled")

    def __init__(self, time, fn, args):
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self):
        """Prevent the callback from running; safe to call repeatedly."""
        self.cancelled = True

    def __repr__(self):
        state = "cancelled" if self.cancelled else "armed"
        return "Handle(t={}, {})".format(self.time, state)


def _trace_accepts_cancelled(trace):
    """True when a trace hook can take the ``cancelled`` keyword."""
    try:
        signature = inspect.signature(trace)
    except (TypeError, ValueError):
        return False
    for parameter in signature.parameters.values():
        if parameter.kind is inspect.Parameter.VAR_KEYWORD:
            return True
        if (
            parameter.name == "cancelled"
            and parameter.kind in (
                inspect.Parameter.POSITIONAL_OR_KEYWORD,
                inspect.Parameter.KEYWORD_ONLY,
            )
        ):
            return True
    return False


class Simulator:
    """A deterministic discrete-event simulator with integer time.

    Parameters
    ----------
    trace:
        Optional debug hook observing every scheduled callback as it is
        *dequeued*. The contract:

        * For a callback that is about to execute, the hook is invoked
          as ``trace(now, fn, args)`` immediately before ``fn(*args)``
          runs, with the clock already advanced to the callback's time.
          For a queued process, ``fn`` is its pinned ``_resume_cb`` and
          ``args`` is ``(None, None)``.
        * For a callback whose :class:`Handle` was cancelled, the
          dequeue is also reported — as ``trace(time, fn, args,
          cancelled=True)`` — but **only** when the hook's signature
          accepts a ``cancelled`` keyword (otherwise cancelled skips
          are silently dropped, preserving the legacy three-argument
          hook behaviour). Without this, cancelled callbacks vanish
          invisibly, which makes wake-race debugging misleading: the
          loser of a hybrid wake-up race looks like it never existed.
        * The clock is **not** advanced for a cancelled skip, and the
          hook may observe the same cancelled handle only once. A
          cancelled entry is dequeued when it reaches the head of its
          bucket, so the hook sees both streams interleaved in the
          legacy ``(time, seq)`` heap's order.

        Hooks that want both streams simply declare
        ``def hook(now, fn, args, cancelled=False)``.

    Counters
    --------
    :attr:`executed` and :attr:`skipped_cancelled` count dequeued
    callbacks over the simulator's lifetime; the telemetry layer
    harvests them after a run. Process resumes count as executed
    callbacks exactly like :class:`Handle` callbacks (they occupy one
    dequeue each), so the counters are invariant under the
    Timeout-object vs. integer-yield encoding of a delay.
    """

    def __init__(self, trace=None):
        # time -> an entry, or a list of entries in schedule order; the
        # heap orders the distinct times only.
        self._buckets = {}
        self._times = []
        # The list bucket the full drain is walking, or left when a
        # callback raised out of it: its time, and how many of its
        # entries were consumed. Whichever loop next opens that bucket
        # trims them first. Only meaningful while _head_time is set.
        self._head_time = None
        self._head_index = 0
        self._now = 0
        self._trace = trace
        self._trace_cancelled = (
            trace is not None and _trace_accepts_cancelled(trace)
        )
        self._running = False
        self.executed = 0
        self.skipped_cancelled = 0
        #: Optional :class:`~repro.faults.injector.FaultInjector`. The
        #: instrumented seams (wake timers, monitor deliveries, sleep
        #: transitions) consult it with one ``is None`` check; when no
        #: plan is installed they behave exactly as before.
        self.fault_injector = None
        #: Optional tie-break strategy (see :mod:`repro.check.tiebreak`)
        #: consulted whenever a bucket holds two or more live entries:
        #: ``tie_breaker.choose(time, candidates)`` returns the index of
        #: the entry to dispatch next, among the bucket's live entries
        #: in schedule order. ``None`` (the default) dispatches in the
        #: legacy FIFO ``(time, seq)`` order — bit-for-bit, as the
        #: golden-trace corpus requires. The attribute is read once per
        #: :meth:`run` or :meth:`step` call, never per event.
        self.tie_breaker = None

    @property
    def now(self):
        """Current simulated time in nanoseconds."""
        return self._now

    @property
    def pending(self):
        """Number of scheduled (non-cancelled) callbacks still queued."""
        count = 0
        for time, bucket in self._buckets.items():
            if bucket.__class__ is not list:
                if bucket.__class__ is not Handle or not bucket.cancelled:
                    count += 1
                continue
            start = self._head_index if time == self._head_time else 0
            for entry in bucket[start:]:
                if entry.__class__ is not Handle or not entry.cancelled:
                    count += 1
        return count

    def schedule(self, delay, fn, *args):
        """Run ``fn(*args)`` after ``delay`` ns; returns a :class:`Handle`."""
        delay = operator.index(delay)
        if delay < 0:
            raise SchedulingError("cannot schedule in the past: {}".format(delay))
        return self._insert(self._now + delay, Handle(self._now + delay, fn, args))

    def schedule_at(self, time, fn, *args):
        """Run ``fn(*args)`` at absolute time ``time``."""
        time = operator.index(time)
        if time < self._now:
            raise SchedulingError(
                "cannot schedule at {} before now {}".format(time, self._now)
            )
        return self._insert(time, Handle(time, fn, args))

    def _insert(self, time, entry):
        buckets = self._buckets
        if time in buckets:
            bucket = buckets[time]
            if bucket.__class__ is list:
                bucket.append(entry)
            else:
                buckets[time] = [bucket, entry]
        else:
            buckets[time] = entry
            heappush(self._times, time)
        return entry

    def event(self):
        """Create a fresh, untriggered :class:`Event` bound to this simulator."""
        return Event(self)

    def timeout(self, delay, value=None):
        """Create a :class:`Timeout` that triggers ``delay`` ns from now."""
        return Timeout(self, delay, value)

    def spawn(self, generator, name=None):
        """Start a generator process; returns its :class:`Process` event."""
        return Process(self, generator, name=name)

    def step(self):
        """Run the single earliest callback; returns False if queue is empty."""
        if self._running:
            raise SchedulingError("step() called re-entrantly")
        return self._dispatch(None, None, True)

    def run(self, until=None, max_events=None):
        """Drain the event queue.

        Parameters
        ----------
        until:
            Stop once the next callback would run strictly after this time
            (the clock is advanced to ``until`` in that case).
        max_events:
            Safety valve for tests: raise :class:`SchedulingError` if more
            than this many callbacks execute.
        """
        if self._running:
            raise SchedulingError("run() called re-entrantly")
        if (
            until is not None
            or max_events is not None
            or self._trace is not None
            or self.tie_breaker is not None
        ):
            if until is not None:
                until = operator.index(until)
            self._dispatch(until, max_events, False)
            return
        # The full drain — the campaign runner's main loop, with no
        # per-callback checks. Local aliases keep it free of repeated
        # attribute loads, bucket open/close is inlined because nearly
        # every callback sits in its own bucket, and a process is
        # resumed in place (a singleton's and a list entry's copies of
        # that block must stay alike). A time is popped before its
        # bucket runs; a list bucket a callback raised out of is put
        # back under its time by the ``finally``.
        self._running = True
        executed = 0
        buckets = self._buckets
        times = self._times
        pop_time = heappop
        push_time = heappush
        try:
            while times:
                time = pop_time(times)
                entry = buckets.pop(time)
                if entry.__class__ is Process:
                    self._now = time
                    try:
                        target = entry.generator.send(None)
                    except BaseException as stop:  # noqa: BLE001
                        entry._advance(None, stop)
                    else:
                        if target.__class__ is int and target >= 0:
                            time += target
                            if time in buckets:
                                bucket = buckets[time]
                                if bucket.__class__ is list:
                                    bucket.append(entry)
                                else:
                                    buckets[time] = [bucket, entry]
                            else:
                                buckets[time] = entry
                                push_time(times, time)
                        else:
                            entry._advance(target, None)
                    executed += 1
                    continue
                if entry.__class__ is Handle:
                    if entry.cancelled:
                        self.skipped_cancelled += 1
                        continue
                    self._now = time
                    entry.fn(*entry.args)
                    executed += 1
                    continue
                if entry.__class__ is not list:
                    self._now = time
                    entry(None, None)
                    executed += 1
                    continue
                head = buckets[time] = entry
                if time == self._head_time:
                    # A callback raised out of this bucket: drop the
                    # entries it had consumed.
                    del head[:self._head_index]
                else:
                    self._head_time = time
                self._head_index = 0
                # A list iterator also yields the same-time children
                # appended while it walks.
                for entry in head:
                    self._head_index += 1
                    if entry.__class__ is Process:
                        self._now = time
                        try:
                            target = entry.generator.send(None)
                        except BaseException as stop:  # noqa: BLE001
                            entry._advance(None, stop)
                        else:
                            if target.__class__ is int and target >= 0:
                                due = time + target
                                if due in buckets:
                                    bucket = buckets[due]
                                    if bucket.__class__ is list:
                                        bucket.append(entry)
                                    else:
                                        buckets[due] = [bucket, entry]
                                else:
                                    buckets[due] = entry
                                    push_time(times, due)
                            else:
                                entry._advance(target, None)
                    elif entry.__class__ is Handle:
                        if entry.cancelled:
                            self.skipped_cancelled += 1
                            continue
                        self._now = time
                        entry.fn(*entry.args)
                    else:
                        self._now = time
                        entry(None, None)
                    executed += 1
                del buckets[time]
                self._head_time = None
        finally:
            if self._head_time is not None:
                push_time(times, self._head_time)
            self.executed += executed
            self._running = False

    def _dispatch(self, until, max_events, single):
        """The instrumented loop: every mode but :meth:`run`'s full drain.

        Serves the ``until`` horizon, the ``max_events`` budget, the
        trace hook, :attr:`tie_breaker` and :meth:`step` (``single``:
        return True once one callback has executed; False means the
        queue is empty). Dispatch follows the legacy ``(time, seq)``
        heap's rule: a cancelled entry is consumed — counted, and
        reported to a cancelled-aware trace hook — when it reaches the
        head of its bucket, even past ``until``; otherwise the head
        dispatches next.

        With a tie-breaker, every bucket holding two or more live
        entries is a choice point: the strategy picks one of them,
        presented in schedule order, so always picking index 0
        reproduces the FIFO order exactly
        (``tests/test_scheduler_properties.py`` holds it to that). Only
        same-timestamp ties are permutable: choosing never moves an
        event in time, so every explored schedule is a legal ordering
        of the same event set. Same-timestamp children scheduled by the
        executing callback join the open bucket and the next round's
        candidate set. A singleton is taken the way the drain takes
        it, its bucket closed before it runs; its same-timestamp
        children open a new bucket, which is the same candidate set.
        """
        self._running = True
        chooser = self.tie_breaker
        buckets = self._buckets
        times = self._times
        trace = self._trace
        trace_cancelled = self._trace_cancelled
        executed = 0
        try:
            while times:
                time = times[0]
                entry = buckets[time]
                if entry.__class__ is not list:
                    if entry.__class__ is Handle and entry.cancelled:
                        del buckets[time]
                        heappop(times)
                        self.skipped_cancelled += 1
                        if trace_cancelled:
                            trace(time, entry.fn, entry.args, cancelled=True)
                        continue
                    if until is not None and time > until:
                        break
                    del buckets[time]
                    heappop(times)
                else:
                    bucket = entry
                    if time == self._head_time:
                        # A callback raised out of the full drain: drop
                        # the entries before its cursor, already
                        # consumed.
                        del bucket[: self._head_index]
                        self._head_time = None
                        self._head_index = 0
                    while (
                        bucket
                        and bucket[0].__class__ is Handle
                        and bucket[0].cancelled
                    ):
                        entry = bucket.pop(0)
                        self.skipped_cancelled += 1
                        if trace_cancelled:
                            trace(time, entry.fn, entry.args, cancelled=True)
                    if not bucket:
                        del buckets[time]
                        heappop(times)
                        continue
                    if until is not None and time > until:
                        break
                    index = 0
                    if chooser is not None and len(bucket) > 1:
                        index = self._choose(chooser, time, bucket)
                    entry = bucket.pop(index)
                self._now = time
                kind = entry.__class__
                if kind is Process:
                    if trace is not None:
                        trace(time, entry._resume_cb, _FAST_ARGS)
                    try:
                        target = entry.generator.send(None)
                    except BaseException as stop:  # noqa: BLE001
                        entry._advance(None, stop)
                    else:
                        if target.__class__ is int and target >= 0:
                            due = time + target
                            if due in buckets:
                                bucket = buckets[due]
                                if bucket.__class__ is list:
                                    bucket.append(entry)
                                else:
                                    buckets[due] = [bucket, entry]
                            else:
                                buckets[due] = entry
                                heappush(times, due)
                        else:
                            entry._advance(target, None)
                elif kind is Handle:
                    if trace is not None:
                        trace(time, entry.fn, entry.args)
                    entry.fn(*entry.args)
                else:
                    if trace is not None:
                        trace(time, entry, _FAST_ARGS)
                    entry(None, None)
                executed += 1
                if single:
                    return True
                if max_events is not None and executed > max_events:
                    raise SchedulingError(
                        "exceeded max_events={}".format(max_events)
                    )
            if until is not None and until > self._now:
                self._now = until
            return False
        finally:
            self.executed += executed
            self._running = False

    @staticmethod
    def _choose(chooser, time, bucket):
        """Index in ``bucket`` of the entry ``chooser`` picks among its
        live entries (0 when fewer than two are live). Without a
        cancelled entry the candidates are the bucket itself."""
        live = None
        for entry in bucket:
            if entry.__class__ is Handle and entry.cancelled:
                live = [
                    i for i, other in enumerate(bucket)
                    if other.__class__ is not Handle or not other.cancelled
                ]
                if len(live) < 2:
                    return 0
                candidates = tuple([bucket[i] for i in live])
                break
        else:
            candidates = tuple(bucket)
        choice = chooser.choose(time, candidates)
        if not 0 <= choice < len(candidates):
            raise SchedulingError(
                "tie breaker chose index {} of {} candidates at "
                "t={}".format(choice, len(candidates), time)
            )
        return choice if live is None else live[choice]
