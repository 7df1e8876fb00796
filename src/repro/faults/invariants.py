"""Barrier safety/liveness and accounting invariants, checked post-run.

The checker consumes the typed telemetry event stream — the same one
the Perfetto export reads — and holds it to the properties that must
survive *any* fault plan:

* **monotonic-time** — each thread's event timestamps never decrease
  in emission order (the discrete-event clock only moves forward).
  Per-thread, not global: check-in events deliberately carry the
  backdated *arrival* timestamp and are emitted once the check-in RMW
  completes, so another thread's events may legitimately interleave
  with later timestamps;
* **barrier-safety** — no thread departs barrier instance N before
  that instance's release (separation-logic style: departure implies
  the release was observed);
* **barrier-liveness** — every check-in is eventually released and the
  thread departs, within an optional simulated-time deadline after the
  release (bounds late wake-ups under chaos);
* **energy-conservation** — per CPU, the sum of the per-category
  accounting spans equals that thread's wall time (its last event
  timestamp): no simulated nanosecond is double-charged or dropped.

Violations are structured :class:`InvariantViolation` records carrying
the offending event window.
"""

from dataclasses import dataclass, field, replace

from repro.errors import ReproError
from repro.telemetry.events import (
    BarrierCheckIn,
    BarrierDepart,
    BarrierRelease,
    InvariantCheck,
)

MONOTONIC_TIME = "monotonic-time"
BARRIER_SAFETY = "barrier-safety"
BARRIER_LIVENESS = "barrier-liveness"
ENERGY_CONSERVATION = "energy-conservation"

#: All invariant names, in reporting order.
INVARIANTS = (
    MONOTONIC_TIME,
    BARRIER_SAFETY,
    BARRIER_LIVENESS,
    ENERGY_CONSERVATION,
)

#: Most events attached to one violation's window.
_WINDOW_LIMIT = 16


@dataclass(frozen=True)
class InvariantViolation:
    """One broken invariant, with the events that witnessed it.

    ``first_index``/``last_index`` locate the witness window in the
    telemetry stream the check ran over (0-based stream positions of
    the window's earliest and latest event), so a JSON report points
    straight at the offending slice of the exported trace. They are
    ``None`` for violations built outside a stream context.
    """

    invariant: str
    message: str
    window: tuple = ()
    first_index: object = None
    last_index: object = None

    def describe(self):
        text = "[{}] {}".format(self.invariant, self.message)
        if self.window:
            text += " (window: {} events, ts {}..{})".format(
                len(self.window), self.window[0].ts, self.window[-1].ts
            )
        return text

    def as_dict(self):
        """JSON-friendly form: message plus the actionable window
        (stream indices and timestamps), never raw event objects."""
        window = tuple(self.window)
        return {
            "invariant": self.invariant,
            "message": self.message,
            "window_events": len(window),
            "window_first_index": getattr(self, "first_index", None),
            "window_last_index": getattr(self, "last_index", None),
            "window_first_ts": window[0].ts if window else None,
            "window_last_ts": window[-1].ts if window else None,
        }


def annotate_window_indices(violations, events):
    """Stamp each violation's window with stream positions.

    ``events`` is the stream the violations were found in; each
    violation's ``first_index``/``last_index`` become the positions of
    its window's earliest/latest event in that stream. Window events
    not present in the stream (defensive) are skipped. Returns new
    (frozen) records; violations without windows pass through
    untouched, and the stream is not read when none has a window.
    """
    if not any(violation.window for violation in violations):
        return list(violations)
    positions = {id(event): index for index, event in enumerate(events)}
    annotated = []
    for violation in violations:
        indices = sorted(
            positions[id(event)]
            for event in violation.window
            if id(event) in positions
        )
        if not indices:
            annotated.append(violation)
            continue
        annotated.append(replace(
            violation, first_index=indices[0], last_index=indices[-1],
        ))
    return annotated


def _window(events):
    return tuple(events[:_WINDOW_LIMIT])


def _stream(events):
    """``events`` as a sequence the checks can walk more than once: a
    list or tuple as it is, anything else copied into a list."""
    return events if isinstance(events, (list, tuple)) else list(events)


@dataclass
class _Instance:
    """Working state for one (pc, sequence) barrier episode."""

    pc: str
    sequence: int
    check_ins: dict = field(default_factory=dict)   # thread -> event
    departs: dict = field(default_factory=dict)     # thread -> event
    release: object = None
    events: list = field(default_factory=list)


class InvariantChecker:
    """Audits one run's event stream (and optionally its accounts).

    Parameters
    ----------
    deadline_ns:
        Maximum simulated time between an instance's release and any
        participant's departure (the liveness bound). ``None`` disables
        the deadline; releases/departures are still required to exist.
    """

    def __init__(self, deadline_ns=None):
        if deadline_ns is not None and deadline_ns <= 0:
            raise ReproError("deadline_ns must be positive or None")
        self.deadline_ns = deadline_ns

    # -- individual checks -------------------------------------------------

    def _check_monotonic(self, events):
        violations = []
        previous = {}  # thread -> last event
        for position, event in enumerate(events):
            thread = getattr(event, "thread", None)
            if thread is None:
                thread = getattr(event, "target", None)
            last = previous.get(thread)
            if last is not None and event.ts < last.ts:
                violations.append(InvariantViolation(
                    invariant=MONOTONIC_TIME,
                    message=(
                        "thread {}: time went backwards at stream "
                        "position {}: {} after {}".format(
                            thread, position, event.ts, last.ts
                        )
                    ),
                    window=(last, event),
                ))
            previous[thread] = event
        return violations

    def _instances(self, events):
        instances = {}
        for event in events:
            if not isinstance(
                event, (BarrierCheckIn, BarrierRelease, BarrierDepart)
            ):
                continue
            key = (event.pc, event.sequence)
            instance = instances.get(key)
            if instance is None:
                instance = instances[key] = _Instance(
                    pc=event.pc, sequence=event.sequence
                )
            instance.events.append(event)
            if isinstance(event, BarrierCheckIn):
                instance.check_ins.setdefault(event.thread, event)
            elif isinstance(event, BarrierRelease):
                instance.release = event
            else:
                instance.departs.setdefault(event.thread, event)
        return instances

    def _barrier_violations(self, events):
        safety = []
        liveness = []
        instances = self._instances(events)
        for key in sorted(instances):
            instance = instances[key]
            label = "barrier {} instance {}".format(
                instance.pc, instance.sequence
            )
            release = instance.release
            if release is None:
                liveness.append(InvariantViolation(
                    invariant=BARRIER_LIVENESS,
                    message="{}: {} check-in(s) but no release".format(
                        label, len(instance.check_ins)
                    ),
                    window=_window(instance.events),
                ))
                continue
            for thread, depart in sorted(instance.departs.items()):
                if depart.ts < release.ts:
                    safety.append(InvariantViolation(
                        invariant=BARRIER_SAFETY,
                        message=(
                            "{}: thread {} departed at {} before the "
                            "release at {}".format(
                                label, thread, depart.ts, release.ts
                            )
                        ),
                        window=_window(instance.events),
                    ))
                elif (
                    self.deadline_ns is not None
                    and depart.ts - release.ts > self.deadline_ns
                ):
                    liveness.append(InvariantViolation(
                        invariant=BARRIER_LIVENESS,
                        message=(
                            "{}: thread {} departed {} ns after the "
                            "release, beyond the {} ns deadline".format(
                                label, thread, depart.ts - release.ts,
                                self.deadline_ns,
                            )
                        ),
                        window=_window(instance.events),
                    ))
            missing = sorted(
                set(instance.check_ins) - set(instance.departs)
            )
            if missing:
                liveness.append(InvariantViolation(
                    invariant=BARRIER_LIVENESS,
                    message=(
                        "{}: thread(s) {} checked in but never "
                        "departed".format(
                            label, ", ".join(map(str, missing))
                        )
                    ),
                    window=_window(instance.events),
                ))
        return safety, liveness

    def _check_energy(self, events, accounts):
        violations = []
        last_ts = {}
        for event in events:
            thread = getattr(event, "thread", None)
            if thread is None:
                continue
            last_ts[thread] = max(last_ts.get(thread, 0), event.ts)
        for thread in sorted(last_ts):
            if thread >= len(accounts):
                continue
            accounted = accounts[thread].time_ns()
            wall = last_ts[thread]
            if accounted != wall:
                violations.append(InvariantViolation(
                    invariant=ENERGY_CONSERVATION,
                    message=(
                        "cpu {}: accounted spans sum to {} ns but the "
                        "thread's wall time is {} ns (delta {})".format(
                            thread, accounted, wall, accounted - wall
                        )
                    ),
                    window=_window([
                        event for event in events
                        if getattr(event, "thread", None) == thread
                    ][-_WINDOW_LIMIT:]),
                ))
        return violations

    # -- public API --------------------------------------------------------

    def check(self, events, accounts=None):
        """Run every applicable invariant; returns the violation list.

        ``accounts`` is the per-CPU
        :class:`~repro.energy.accounting.EnergyAccount` list (e.g.
        ``RunResult.accounts``); without it the energy-conservation
        check is skipped.
        """
        events = _stream(events)
        violations = list(self._check_monotonic(events))
        safety, liveness = self._barrier_violations(events)
        violations.extend(safety)
        violations.extend(liveness)
        if accounts is not None:
            violations.extend(self._check_energy(events, accounts))
        return annotate_window_indices(violations, events)

    def audit(self, events, accounts=None, tracer=None):
        """Like :meth:`check`, additionally emitting one
        :class:`~repro.telemetry.events.InvariantCheck` event per
        invariant into ``tracer`` (when enabled), so chaos runs are
        inspectable in the trace export. ``events`` may be ``tracer``'s
        own stream: it is read in place, and ``ts`` is taken before the
        checks are appended to it."""
        events = _stream(events)
        violations = self.check(events, accounts=accounts)
        if tracer is not None and tracer.enabled:
            ts = max((event.ts for event in events), default=0)
            by_name = {}
            for violation in violations:
                by_name[violation.invariant] = (
                    by_name.get(violation.invariant, 0) + 1
                )
            names = INVARIANTS if accounts is not None else tuple(
                name for name in INVARIANTS if name != ENERGY_CONSERVATION
            )
            for name in names:
                count = by_name.get(name, 0)
                tracer.emit(InvariantCheck(
                    ts=ts, invariant=name,
                    passed=count == 0, violations=count,
                ))
        return violations
