"""The two protocol oracles beyond the invariant checker.

Both consume the same typed telemetry stream the
:class:`~repro.faults.invariants.InvariantChecker` audits, and report
violations as the same structured
:class:`~repro.faults.invariants.InvariantViolation` records (window
event indices included), so the explorer's reports and counterexample
artifacts are uniform across all oracles.

**no-lost-wakeup** — the thrifty barrier's core hazard (paper
Section 3.3): a thread that commits to a sleep state must be woken in
the same barrier episode. Observationally: every ``SleepEnter`` is
matched by a later ``SleepExit`` of the same thread, and no thread
process is still blocked when the event queue drains (a stuck spinner
never emits another event, so the stream alone cannot distinguish "run
ended" from "thread wedged" — the harness passes the simulator's view
in as ``stuck_threads``).

**release-safety** — no thread observes a release before the last
arrival: a barrier episode's release must come after *all* ``n``
participants checked in (``BarrierCheckIn.ts`` carries the backdated
arrival timestamp, so a release older than any arrival means threads
crossed early).
"""

from repro.faults.invariants import (
    InvariantViolation,
    annotate_window_indices,
    _stream,
    _window,
)
from repro.telemetry.events import (
    BarrierCheckIn,
    BarrierRelease,
    SleepEnter,
    SleepExit,
)

NO_LOST_WAKEUP = "no-lost-wakeup"
RELEASE_SAFETY = "release-safety"

#: Harness-level failure (the simulation raised instead of finishing).
SCHEDULE_CRASH = "schedule-crash"


def check_no_lost_wakeup(events, stuck_threads=(), annotate=True):
    """Violations for sleeps that were never woken.

    ``stuck_threads`` names thread processes still unfinished when the
    event queue drained (a lost wake-up wedges the whole machine: the
    queue empties with the sleeper still blocked).
    """
    events = _stream(events)
    violations = []
    open_sleeps = {}  # thread -> SleepEnter
    for event in events:
        if isinstance(event, SleepEnter):
            open_sleeps[event.thread] = event
        elif isinstance(event, SleepExit):
            open_sleeps.pop(event.thread, None)
    for thread in sorted(open_sleeps):
        enter = open_sleeps[thread]
        violations.append(InvariantViolation(
            invariant=NO_LOST_WAKEUP,
            message=(
                "thread {} entered sleep state {} at {} and was never "
                "woken (the run drained with the sleep open)".format(
                    thread, enter.state, enter.ts
                )
            ),
            window=(enter,),
        ))
    if stuck_threads:
        violations.append(InvariantViolation(
            invariant=NO_LOST_WAKEUP,
            message=(
                "{} thread(s) still blocked when the event queue "
                "drained: {}".format(
                    len(stuck_threads),
                    ", ".join(str(name) for name in stuck_threads),
                )
            ),
            window=_window(events[-4:]),
        ))
    if annotate:
        violations = annotate_window_indices(violations, events)
    return violations


def check_release_safety(events, n_threads=None, annotate=True):
    """Violations for releases that preceded the last arrival."""
    events = _stream(events)
    episodes = {}  # (pc, sequence) -> [check_ins], release
    for event in events:
        if isinstance(event, BarrierCheckIn):
            episodes.setdefault(
                (event.pc, event.sequence), ([], [None])
            )[0].append(event)
        elif isinstance(event, BarrierRelease):
            episodes.setdefault(
                (event.pc, event.sequence), ([], [None])
            )[1][0] = event
    violations = []
    for key in sorted(episodes):
        check_ins, (release,) = episodes[key]
        if release is None:
            continue  # liveness territory — the InvariantChecker's job
        label = "barrier {} instance {}".format(*key)
        late = [e for e in check_ins if e.ts > release.ts]
        for event in sorted(late, key=lambda e: (e.ts, e.thread)):
            violations.append(InvariantViolation(
                invariant=RELEASE_SAFETY,
                message=(
                    "{}: released at {} before thread {} arrived at "
                    "{}".format(label, release.ts, event.thread, event.ts)
                ),
                window=_window(sorted(
                    check_ins + [event, release],
                    key=lambda e: e.ts,
                )),
            ))
        arrived = {event.thread for event in check_ins}
        if n_threads is not None and len(arrived) < n_threads and not late:
            violations.append(InvariantViolation(
                invariant=RELEASE_SAFETY,
                message=(
                    "{}: released at {} with only {} of {} arrivals".format(
                        label, release.ts, len(arrived), n_threads
                    )
                ),
                window=_window(check_ins + [release]),
            ))
    if annotate:
        violations = annotate_window_indices(violations, events)
    return violations
