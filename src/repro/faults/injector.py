"""Turn a :class:`~repro.faults.plan.FaultPlan` into live perturbation.

The :class:`FaultInjector` is the single mutable object behind every
injection seam. Each seam owns its own named RNG stream
(``random.Random("fault:<seed>:<seam>")`` — string seeds hash through
SHA-512, so streams are stable across processes and Python runs), which
keeps the streams independent: adding opportunities at one seam never
shifts the draws of another.

Installation is one attribute: :func:`install_fault_plan` sets
``system.sim.fault_injector``, and the instrumented seams in
:mod:`repro.coherence.controller` and :mod:`repro.machine.cpu` consult
it with a single ``is None`` check. With no injector installed those
paths are byte-for-byte the pre-existing behaviour — the whole
subsystem costs one attribute load per seam when unused.
"""

import random

from repro.telemetry.events import FaultInjected
from repro.telemetry.tracer import NULL_TRACER
from repro.workloads.perturb import inject_preemptions

#: Fault kinds recorded by :meth:`FaultInjector.counts` and the
#: ``fault.kind[...]`` counters.
FAULT_KINDS = (
    "timer_drift",
    "timer_loss",
    "invalidation_delay",
    "invalidation_drop",
    "transition_jitter",
    "spurious_wake",
    "stall",
)


class FaultInjector:
    """Executes one plan against one simulator.

    Created per run (per :class:`~repro.sim.core.Simulator`); the seeded
    streams plus the simulator's deterministic callback order make the
    injected fault sequence — and therefore the entire perturbed run —
    reproducible bit-for-bit.
    """

    def __init__(self, plan, sim, telemetry=None):
        self.plan = plan
        self.sim = sim
        self.telemetry = telemetry if telemetry is not None else NULL_TRACER
        self.counts = {}
        self._streams = {}

    def _stream(self, seam):
        rng = self._streams.get(seam)
        if rng is None:
            rng = random.Random(
                "fault:{}:{}".format(self.plan.seed, seam)
            )
            self._streams[seam] = rng
        return rng

    def _record(self, fault, target, magnitude_ns):
        self.counts[fault] = self.counts.get(fault, 0) + 1
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.emit(FaultInjected(
                ts=self.sim.now, fault=fault, target=target,
                magnitude_ns=magnitude_ns,
            ))

    @property
    def total_injected(self):
        return sum(self.counts.values())

    # -- seams (called from the instrumented layers) ----------------------

    def on_wake_timer(self, node_id, delay_ns):
        """Perturb one countdown-timer arming.

        Returns ``(delay_ns, lost)``. A lost timer never fires — the
        hybrid wake-up's external signal (or the residual spin) must
        cover, which is exactly the redundancy Section 3.3.2 argues for.
        """
        plan = self.plan
        rng = self._stream("timer")
        if (
            plan.timer_loss_probability
            and rng.random() < plan.timer_loss_probability
        ):
            self._record("timer_loss", node_id, delay_ns)
            return delay_ns, True
        if (
            plan.timer_drift_probability
            and rng.random() < plan.timer_drift_probability
        ):
            drift = rng.randint(
                -plan.timer_drift_max_ns, plan.timer_drift_max_ns
            )
            drifted = max(0, delay_ns + drift)
            self._record("timer_drift", node_id, drifted - delay_ns)
            return drifted, False
        return delay_ns, False

    def on_monitor_fire(self, node_id, line_addr):
        """Perturb one flag-monitor wake-up delivery.

        Returns the extra delivery delay in ns (0 = deliver now). A
        "drop" is modeled as drop-then-redeliver: the wake-up goes
        missing for ``invalidation_redeliver_ns`` and then arrives, so
        liveness is delayed, never lost.
        """
        plan = self.plan
        rng = self._stream("invalidation")
        if (
            plan.invalidation_drop_probability
            and rng.random() < plan.invalidation_drop_probability
        ):
            delay = plan.invalidation_redeliver_ns
            self._record("invalidation_drop", node_id, delay)
            return delay
        if (
            plan.invalidation_delay_probability
            and rng.random() < plan.invalidation_delay_probability
        ):
            delay = rng.randint(0, plan.invalidation_delay_max_ns)
            if delay:
                self._record("invalidation_delay", node_id, delay)
            return delay
        return 0

    def on_transition(self, node_id, state_name):
        """Extra latency for one sleep-state transition ramp (ns)."""
        plan = self.plan
        rng = self._stream("transition")
        if (
            plan.transition_jitter_probability
            and rng.random() < plan.transition_jitter_probability
        ):
            extra = rng.randint(0, plan.transition_jitter_max_ns)
            if extra:
                self._record("transition_jitter", node_id, extra)
            return extra
        return 0

    def on_sleep_entry(self, node_id, wake_event):
        """Maybe schedule a spurious wake-up for this sleep.

        The stray signal succeeds the composite wake event directly
        with the value ``"fault:spurious"`` — distinguishable from both
        legitimate sources, and guarded so it never double-triggers an
        event a real wake-up already won. Returns its handle, for the
        sleep to cancel once it wakes, or None when none was scheduled.
        """
        plan = self.plan
        rng = self._stream("spurious")
        if not (
            plan.spurious_wake_probability
            and rng.random() < plan.spurious_wake_probability
        ):
            return None
        delay = rng.randint(0, plan.spurious_wake_max_ns)

        def fire():
            if not wake_event.triggered:
                self._record("spurious_wake", node_id, delay)
                wake_event.succeed("fault:spurious")

        return self.sim.schedule(delay, fire)

    def perturb_hook(self):
        """The straggler seam, as a ``WorkloadRunner`` perturb hook.

        Returns None when the plan has no stall component; otherwise a
        callable composing :func:`~repro.workloads.perturb.
        inject_preemptions` with a seed drawn from the stall stream,
        recording every injected stall.
        """
        plan = self.plan
        if plan.stall_probability <= 0 or plan.stall_duration_ns <= 0:
            return None
        seed = self._stream("stall").randrange(2**32)

        def perturb(instances):
            perturbed, events = inject_preemptions(
                instances,
                probability=plan.stall_probability,
                duration_ns=plan.stall_duration_ns,
                seed=seed,
            )
            for _index, thread, duration_ns in events:
                self._record("stall", thread, duration_ns)
            return perturbed

        return perturb


def install_fault_plan(system, plan, telemetry=None):
    """Wire a plan into a built :class:`~repro.machine.System`.

    Returns the installed :class:`FaultInjector` (or None for a no-op
    plan, leaving the simulator untouched).
    """
    if plan is None or plan.is_noop:
        return None
    injector = FaultInjector(
        plan, system.sim,
        telemetry=telemetry if telemetry is not None else system.telemetry,
    )
    system.sim.fault_injector = injector
    return injector
