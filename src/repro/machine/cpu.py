"""The CPU execution/sleep state machine and its energy ledger.

A :class:`Cpu` exposes generator primitives that thread programs (and the
barrier implementations) compose:

* :meth:`Cpu.compute` — run for a duration at compute power;
* :meth:`Cpu.spin_until` — spin-wait at 85% of compute power (paper
  Section 4.3);
* :meth:`Cpu.sleep` — the full sleep sequence: optional dirty-data flush
  (for non-snooping states), transition in, residency until a wake event,
  transition out. Each piece lands in the right accounting category:
  flush time in Compute (Section 5.2), ramps in Transition, residency in
  Sleep.

Flushing a deep-sleep state invalidates the flushed lines, so the CPU
carries a *refill debt*: the next compute phase is lengthened by the
compulsory-miss penalty of re-fetching them.
"""

import operator
from dataclasses import dataclass

from repro.energy.accounting import Category, EnergyAccount
from repro.energy.states import ramp_energy
from repro.errors import SimulationError
from repro.telemetry.events import SleepEnter, SleepExit
from repro.telemetry.tracer import NULL_TRACER

# Categories as globals: on CPython 3.11 a class read such as
# ``Category.SPIN`` costs ~140 ns, a global ~10 (DESIGN.md §8).
_COMPUTE = Category.COMPUTE
_SPIN = Category.SPIN
_TRANSITION = Category.TRANSITION
_SLEEP = Category.SLEEP


@dataclass(slots=True)
class SleepOutcome:
    """What happened during one :meth:`Cpu.sleep` call."""

    state: object
    flushed_lines: int
    flush_ns: int
    resident_ns: int
    entered_at: int
    wake_completed_at: int

    @property
    def total_ns(self):
        return self.wake_completed_at - self.entered_at


class Cpu:
    """One processor of the machine."""

    def __init__(
        self, sim, node_id, power, refill_per_line_ns=100, telemetry=None,
    ):
        self.sim = sim
        self.node_id = node_id
        self.power = power
        self.refill_per_line_ns = refill_per_line_ns
        self.telemetry = telemetry if telemetry is not None else NULL_TRACER
        self.account = EnergyAccount(telemetry=self.telemetry)
        # The charge constants, pre-resolved: charge_spin runs for
        # every barrier-internal memory operation, so the account.add
        # bound method and the (static) spinloop wattage are looked up
        # once here instead of twice per charge.
        self._account_add = self.account.add
        self._spin_watts = power.spin_watts
        self._refill_debt_ns = 0
        self.sleep_outcomes = []

    # -- debts -------------------------------------------------------------

    @property
    def refill_debt_ns(self):
        """Pending compulsory-miss penalty from a deep-sleep flush."""
        return self._refill_debt_ns

    def add_refill_debt(self, lines):
        if lines < 0:
            raise SimulationError("refill debt lines must be non-negative")
        self._refill_debt_ns += lines * self.refill_per_line_ns

    # -- execution primitives (generators) ----------------------------------

    def compute(self, duration_ns):
        """Execute for ``duration_ns`` at compute power.

        Any outstanding refill debt is paid here — the re-fetches happen
        during the first post-wake computation and grow the Compute
        segment, as the paper observes for FMM/Water-Nsq/Ocean.
        """
        if duration_ns < 0:
            raise SimulationError("compute duration must be non-negative")
        duration_ns += self._refill_debt_ns
        self._refill_debt_ns = 0
        # operator.index keeps the legacy timeout() strictness: integer
        # array scalars pass, floats raise TypeError instead of truncating.
        yield operator.index(duration_ns)
        self._account_add(
            _COMPUTE, duration_ns, power_watts=self.power.compute_watts
        )

    def mem_op(self, transaction):
        """Run a memory-system transaction, charging its time as Compute.

        The paper files non-barrier stalls (memory, locks) under Compute;
        this wrapper times an arbitrary protocol generator and does the
        same. Returns the transaction's value.
        """
        return self.mem_op_as(_COMPUTE, transaction)

    def mem_op_as(self, category, transaction):
        """Run a memory transaction, charging its time to ``category``.

        Barrier-internal operations (check-in, flag reads) are part of
        barrier time and are charged to Spin; ordinary program accesses
        go to Compute. Spin-category time is charged at spinloop power.
        """
        watts = (
            self.power.spin_watts
            if category is _SPIN
            else self.power.compute_watts
        )
        started = self.sim._now
        value = yield from transaction
        self._account_add(category, self.sim._now - started, power_watts=watts)
        return value

    def charge_spin(self, duration_ns):
        """Charge an elapsed span to Spin at spinloop power.

        The inline form of :meth:`mem_op_as` for the barrier hot path:
        callers time the transaction themselves (``started = sim.now``
        … ``yield from txn`` … ``charge_spin(sim.now - started)``),
        avoiding the extra generator frame the wrapper would put under
        every resume of the transaction.
        """
        self._account_add(_SPIN, duration_ns, power_watts=self._spin_watts)

    def spin_until(self, event):
        """Spin-wait on ``event`` at spinloop power; returns spin time."""
        started = self.sim._now
        yield event
        spun = self.sim._now - started
        self._account_add(_SPIN, spun, power_watts=self._spin_watts)
        return spun

    def sleep(self, state, wake_event, controller=None, flush_lines=0):
        """The full sleep sequence; returns a :class:`SleepOutcome`.

        Parameters
        ----------
        state:
            The :class:`~repro.config.SleepStateConfig` to enter.
        wake_event:
            Event ending the residency (typically an ``AnyOf`` of the
            internal timer and the external flag-invalidation).
        controller:
            The node's cache controller; required when ``state`` cannot
            snoop, to flush dirty data first.
        flush_lines:
            Extra dirty footprint (workload-model lines) to flush.
        """
        entered_at = self.sim._now
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.emit(SleepEnter(
                ts=entered_at, thread=self.node_id, state=state.name,
                flush_lines=flush_lines,
            ))
        flushed = 0
        flush_ns = 0
        if not state.snoops:
            if controller is None:
                raise SimulationError(
                    "non-snooping state {} requires a cache controller "
                    "to flush".format(state.name)
                )
            flush_started = self.sim._now
            flushed = yield from controller.flush_dirty(
                extra_lines=flush_lines
            )
            flush_ns = self.sim._now - flush_started
            # Flush overhead is computation-side work (Section 5.2).
            self._account_add(
                _COMPUTE, flush_ns, power_watts=self.power.compute_watts
            )
            self.add_refill_debt(flushed)
            controller.set_snooping(False)
        sleep_watts = self.power.sleep_watts(state)
        injector = self.sim.fault_injector
        enter_ns = state.transition_latency_ns
        spurious = None
        if injector is not None:
            # Fault seams: a spurious wake-up may be scheduled against
            # this sleep, and the voltage ramps may jitter longer than
            # the nominal Table 3 latency.
            spurious = injector.on_sleep_entry(self.node_id, wake_event)
            enter_ns += injector.on_transition(self.node_id, state.name)
        # Transition in: linear ramp from compute power to sleep power.
        yield enter_ns
        self._account_add(
            _TRANSITION,
            enter_ns,
            energy_joules=ramp_energy(
                self.power.compute_watts, sleep_watts, enter_ns,
            ),
        )
        # Residency: wait for the wake signal (may already have fired).
        resident_started = self.sim._now
        yield wake_event
        if spurious is not None:
            spurious.cancel()  # the sleep is over: a late one is stale
        resident_ns = self.sim._now - resident_started
        self._account_add(_SLEEP, resident_ns, power_watts=sleep_watts)
        exit_ns = state.transition_latency_ns
        if injector is not None:
            exit_ns += injector.on_transition(self.node_id, state.name)
        # Transition out: ramp back up.
        yield exit_ns
        self._account_add(
            _TRANSITION,
            exit_ns,
            energy_joules=ramp_energy(
                sleep_watts, self.power.compute_watts, exit_ns,
            ),
        )
        if not state.snoops and controller is not None:
            controller.set_snooping(True)
        outcome = SleepOutcome(
            state=state,
            flushed_lines=flushed,
            flush_ns=flush_ns,
            resident_ns=resident_ns,
            entered_at=entered_at,
            wake_completed_at=self.sim._now,
        )
        self.sleep_outcomes.append(outcome)
        if telemetry.enabled:
            telemetry.emit(SleepExit(
                ts=self.sim._now, thread=self.node_id, state=state.name,
                entered_ts=entered_at, resident_ns=resident_ns,
                flush_ns=flush_ns, flushed_lines=flushed,
            ))
        return outcome
