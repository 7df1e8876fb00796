"""Awaitable events for simulation processes.

An :class:`Event` is a one-shot trigger with callbacks. Processes wait on
events by yielding them; hardware-style logic (cache controllers, timers)
uses :meth:`Event.add_callback` directly.
"""

from repro.errors import SchedulingError

_PENDING = object()


class Event:
    """A one-shot event that can succeed with a value or fail with an error.

    Callbacks added before the trigger run (in order) at the simulated time
    of the trigger; callbacks added after run immediately.

    ``_callbacks`` holds None, the one callback of an event that has one
    (most have exactly one waiter), or a list once a second is added, so
    an event allocates no list until it needs one.
    """

    __slots__ = ("sim", "_value", "_exception", "_callbacks")

    def __init__(self, sim):
        self.sim = sim
        self._value = _PENDING
        self._exception = None
        self._callbacks = None

    @property
    def triggered(self):
        """True once :meth:`succeed` or :meth:`fail` has been called."""
        return self._value is not _PENDING or self._exception is not None

    @property
    def ok(self):
        """True if the event succeeded (False while pending or failed)."""
        return self._value is not _PENDING

    @property
    def value(self):
        """The success value; raises if the event is pending or failed."""
        if self._exception is not None:
            raise self._exception
        if self._value is _PENDING:
            raise SchedulingError("event value read before trigger")
        return self._value

    @property
    def exception(self):
        """The failure exception, or None."""
        return self._exception

    def succeed(self, value=None):
        """Trigger the event successfully, running callbacks now."""
        if self._value is not _PENDING or self._exception is not None:
            raise SchedulingError("event triggered twice")
        self._value = value
        callbacks = self._callbacks
        if callbacks is not None:
            self._callbacks = None
            if callbacks.__class__ is list:
                for fn in callbacks:
                    fn(self)
            else:
                callbacks(self)
        return self

    def fail(self, exception):
        """Trigger the event with an exception, running callbacks now."""
        if self._value is not _PENDING or self._exception is not None:
            raise SchedulingError("event triggered twice")
        if not isinstance(exception, BaseException):
            raise SchedulingError("fail() requires an exception instance")
        self._exception = exception
        self._dispatch()
        return self

    def add_callback(self, fn):
        """Run ``fn(event)`` when the event triggers (immediately if it has)."""
        if self._value is not _PENDING or self._exception is not None:
            fn(self)
            return
        callbacks = self._callbacks
        if callbacks is None:
            self._callbacks = fn
        elif callbacks.__class__ is list:
            callbacks.append(fn)
        else:
            self._callbacks = [callbacks, fn]

    def _dispatch(self):
        callbacks, self._callbacks = self._callbacks, None
        if callbacks.__class__ is list:
            for fn in callbacks:
                fn(self)
        elif callbacks is not None:
            callbacks(self)

    def __repr__(self):
        state = "pending"
        if self._exception is not None:
            state = "failed"
        elif self._value is not _PENDING:
            state = "ok"
        return "{}({})".format(type(self).__name__, state)


class Timeout(Event):
    """An event that succeeds automatically after a fixed delay."""

    __slots__ = ("delay", "_handle")

    def __init__(self, sim, delay, value=None):
        super().__init__(sim)
        self.delay = delay
        self._handle = sim.schedule(delay, self._expire, value)

    def _expire(self, value):
        if self._value is _PENDING and self._exception is None:
            self.succeed(value)

    def cancel(self):
        """Prevent the timeout from firing (no effect once triggered)."""
        self._handle.cancel()


class AnyOf(Event):
    """Succeeds when the first of several events triggers.

    The value is the triggering event itself, so the waiter can tell which
    branch won — e.g. internal-timer wake-up vs. external invalidation.
    A failed child fails the composite.
    """

    __slots__ = ("events",)

    def __init__(self, sim, events):
        super().__init__(sim)
        self.events = list(events)
        if not self.events:
            raise SchedulingError("AnyOf requires at least one event")
        for event in self.events:
            event.add_callback(self._child_triggered)

    def _child_triggered(self, event):
        if self._value is not _PENDING or self._exception is not None:
            return
        if event._exception is not None:
            self.fail(event._exception)
        else:
            self.succeed(event)
