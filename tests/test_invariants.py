"""The invariant watchdog over the telemetry stream."""

import pytest

from repro.errors import ReproError
from repro.experiments.runner import run_experiment
from repro.faults.invariants import (
    BARRIER_LIVENESS,
    BARRIER_SAFETY,
    ENERGY_CONSERVATION,
    INVARIANTS,
    MONOTONIC_TIME,
    InvariantChecker,
    InvariantViolation,
    annotate_window_indices,
)
from repro.telemetry.events import (
    BarrierCheckIn,
    BarrierDepart,
    BarrierRelease,
    InvariantCheck,
    SleepEnter,
)
from repro.telemetry.tracer import Tracer


def check_in(ts, thread, sequence=1, is_last=False):
    return BarrierCheckIn(
        ts=ts, thread=thread, pc="b0", sequence=sequence, is_last=is_last
    )


def release(ts, thread, sequence=1):
    return BarrierRelease(
        ts=ts, thread=thread, pc="b0", sequence=sequence, bit_ns=None
    )


def depart(ts, thread, sequence=1, arrived_ts=0):
    return BarrierDepart(
        ts=ts, thread=thread, pc="b0", sequence=sequence,
        arrived_ts=arrived_ts, stall_ns=ts - arrived_ts,
    )


#: One clean episode: both threads check in, release, both depart.
CLEAN = [
    check_in(100, 0),
    check_in(200, 1, is_last=True),
    release(200, 1),
    depart(210, 0),
    depart(205, 1),
]


def names(violations):
    return [violation.invariant for violation in violations]


class TestMonotonicTime:
    def test_clean_stream_passes(self):
        assert InvariantChecker().check(CLEAN) == []

    def test_per_thread_regression_detected(self):
        events = [
            SleepEnter(ts=500, thread=0, state="Sleep3", flush_lines=0),
            SleepEnter(ts=400, thread=0, state="Sleep3", flush_lines=0),
        ]
        violations = InvariantChecker().check(events)
        assert names(violations) == [MONOTONIC_TIME]
        assert violations[0].window[0].ts == 500

    def test_cross_thread_backdating_is_legitimate(self):
        # Check-in events carry the backdated arrival timestamp and are
        # emitted after the RMW completes, so a *global* ordering check
        # would false-positive; per-thread ordering must not.
        events = [
            SleepEnter(ts=500, thread=0, state="Sleep3", flush_lines=0),
            SleepEnter(ts=400, thread=1, state="Sleep3", flush_lines=0),
        ]
        assert InvariantChecker().check(events) == []


class TestBarrierSafetyAndLiveness:
    def test_depart_before_release_is_a_safety_violation(self):
        events = [
            check_in(100, 0),
            check_in(200, 1, is_last=True),
            release(200, 1),
            depart(150, 0),
        ]
        assert BARRIER_SAFETY in names(InvariantChecker().check(events))

    def test_check_ins_without_release_is_a_liveness_violation(self):
        events = [check_in(100, 0), check_in(200, 1)]
        violations = InvariantChecker().check(events)
        assert names(violations) == [BARRIER_LIVENESS]
        assert "no release" in violations[0].message

    def test_missing_departure_is_a_liveness_violation(self):
        events = [
            check_in(100, 0),
            check_in(200, 1, is_last=True),
            release(200, 1),
            depart(205, 1),
        ]
        violations = InvariantChecker().check(events)
        assert names(violations) == [BARRIER_LIVENESS]
        assert "never departed" in violations[0].message

    def test_departure_past_deadline_is_a_liveness_violation(self):
        events = CLEAN + [depart(200 + 5_000_000, 2)]
        assert InvariantChecker(deadline_ns=10_000_000).check(events) == []
        late = InvariantChecker(deadline_ns=1_000_000).check(events)
        assert names(late) == [BARRIER_LIVENESS]
        assert "deadline" in late[0].message

    def test_instances_are_independent(self):
        events = list(CLEAN) + [
            check_in(300, 0, sequence=2),
            check_in(400, 1, sequence=2, is_last=True),
            release(400, 1, sequence=2),
            depart(410, 0, sequence=2),
            depart(405, 1, sequence=2),
        ]
        assert InvariantChecker().check(events) == []

    def test_deadline_must_be_positive(self):
        with pytest.raises(ReproError):
            InvariantChecker(deadline_ns=0)


class _Account:
    def __init__(self, ns):
        self._ns = ns

    def time_ns(self):
        return self._ns


class TestEnergyConservation:
    def test_matching_accounts_pass(self):
        accounts = [_Account(210), _Account(205)]
        assert InvariantChecker().check(CLEAN, accounts=accounts) == []

    def test_mismatch_detected(self):
        accounts = [_Account(210), _Account(999)]
        violations = InvariantChecker().check(CLEAN, accounts=accounts)
        assert names(violations) == [ENERGY_CONSERVATION]
        assert "cpu 1" in violations[0].message

    def test_skipped_without_accounts(self):
        assert InvariantChecker().check(CLEAN) == []

    def test_window_is_the_failed_threads_events(self):
        accounts = [_Account(210), _Account(999)]
        (violation,) = InvariantChecker().check(CLEAN, accounts=accounts)
        assert violation.window == tuple(
            event for event in CLEAN if event.thread == 1
        )
        assert (violation.first_index, violation.last_index) == (1, 4)


class TestReporting:
    def test_one_shot_iterators_are_read_once(self):
        accounts = [_Account(210), _Account(205)]
        assert InvariantChecker().check(iter(CLEAN), accounts=accounts) == []
        violations = InvariantChecker().check(iter([check_in(100, 0)]))
        assert names(violations) == [BARRIER_LIVENESS]
        assert (violations[0].first_index, violations[0].last_index) == (
            0, 0,
        )
        assert violations[0].window  # the offending event window travels

    def test_annotation_without_windows_never_reads_the_stream(self):
        class Unreadable:
            def __iter__(self):
                raise AssertionError("the stream was read")

        assert annotate_window_indices([], Unreadable()) == []
        bare = InvariantViolation(invariant=BARRIER_LIVENESS, message="m")
        assert annotate_window_indices([bare], Unreadable()) == [bare]

    def test_audit_emits_one_check_event_per_invariant(self):
        tracer = Tracer()
        InvariantChecker().audit(CLEAN, tracer=tracer)
        checks = [
            event for event in tracer.events
            if isinstance(event, InvariantCheck)
        ]
        # Energy conservation is skipped without accounts.
        assert [c.invariant for c in checks] == [
            name for name in INVARIANTS if name != ENERGY_CONSERVATION
        ]
        assert all(c.passed for c in checks)

    def test_audit_counts_violations_per_invariant(self):
        tracer = Tracer()
        InvariantChecker().audit(
            [check_in(100, 0)], accounts=[_Account(100)], tracer=tracer
        )
        checks = {
            event.invariant: event for event in tracer.events
            if isinstance(event, InvariantCheck)
        }
        assert set(checks) == set(INVARIANTS)
        assert not checks[BARRIER_LIVENESS].passed
        assert checks[BARRIER_LIVENESS].violations == 1
        assert checks[MONOTONIC_TIME].passed


    def test_audit_of_the_tracers_own_stream_copies_nothing(self):
        """Auditing ``tracer.events`` in place (as a chaos cell does)
        reports what an audit of a copy reports, and a one-shot
        iterator is read once."""
        stream = [*CLEAN, check_in(300, 0, sequence=2)]
        accounts = [_Account(210), _Account(205)]

        def audited(events, tracer):
            violations = InvariantChecker().audit(
                events, accounts=accounts, tracer=tracer
            )
            checks = [
                event for event in tracer.events
                if isinstance(event, InvariantCheck)
            ]
            return violations, checks

        in_place = Tracer()
        in_place.events.extend(stream)
        copied = Tracer()
        copied.events.extend(stream)
        one_shot = Tracer()
        one_shot.events.extend(stream)
        reads = []

        def once():
            reads.append(1)
            yield from stream

        got = audited(in_place.events, in_place)
        assert got == audited(list(copied.events), copied)
        assert got == audited(once(), one_shot)
        assert reads == [1]
        assert names(got[0]) == [BARRIER_LIVENESS, ENERGY_CONSERVATION]
        assert {check.ts for check in got[1]} == {
            max(event.ts for event in stream)
        }
        assert in_place.events[:len(stream)] == stream


class TestRealRuns:
    @pytest.mark.parametrize("config", ["baseline", "thrifty"])
    def test_clean_simulation_satisfies_all_invariants(self, config):
        result = run_experiment(
            "fmm", config, threads=8, telemetry=True
        )
        checker = InvariantChecker(deadline_ns=10_000_000)
        assert checker.check(result.telemetry.events) == []
