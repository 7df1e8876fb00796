"""Declarative, seeded fault plans.

A :class:`FaultPlan` names the adversarial timing behaviour one chaos
run subjects the simulated machine to. It is pure data — probabilities
and magnitudes per injection seam plus one seed — so a plan can travel
(into reports, across processes) and two runs with the same
``(seed, plan, configuration)`` triple are bit-identical, event stream
included. The seams mirror the thrifty barrier's own robustness
arguments (Sections 3.3-3.4 of the paper):

* **wake timer** — drift (the countdown fires early or late) and loss
  (the countdown never fires; the hybrid wake-up's external signal must
  cover);
* **barrier-flag invalidation** — the external wake-up is delayed, or
  dropped and redelivered later (a lost-then-retried coherence message);
* **sleep transitions** — entering/leaving a sleep state takes longer
  than the Table 3 latency (voltage-ramp jitter);
* **spurious wake-ups** — a sleeping CPU is woken by neither wake
  source (stray interrupt); the residual spin of Section 3.3.1 must
  absorb it;
* **stragglers** — OS context-switch/preemption stalls lengthen random
  compute phases (Section 3.4.2), composed from
  :func:`repro.workloads.perturb.inject_preemptions` with the
  context-switch cost model of :mod:`repro.machine.timeshare`.

Every fault is *recoverable by construction*: timers may be lost but
invalidations are always eventually delivered, so a correct barrier
still reaches every release — chaos costs energy and lateness, never
forward progress. The invariant watchdog
(:mod:`repro.faults.invariants`) holds runs to exactly that.
"""

import random
from dataclasses import dataclass, fields

from repro.errors import ConfigError
from repro.machine.timeshare import DEFAULT_CONTEXT_SWITCH_NS

#: Default redelivery latency for a dropped flag invalidation: the wake
#: signal goes missing long enough to matter, never forever.
DEFAULT_REDELIVER_NS = 100_000

#: Default straggler stall: a scheduling quantum's worth of context
#: switches (Section 3.4.2 models page faults / daemons at ~ms scale;
#: the default stays one order below so small tests remain fast).
DEFAULT_STALL_NS = 20 * DEFAULT_CONTEXT_SWITCH_NS

_PROBABILITY_FIELDS = (
    "timer_drift_probability",
    "timer_loss_probability",
    "invalidation_delay_probability",
    "invalidation_drop_probability",
    "transition_jitter_probability",
    "spurious_wake_probability",
    "stall_probability",
)

_MAGNITUDE_FIELDS = (
    "timer_drift_max_ns",
    "invalidation_delay_max_ns",
    "invalidation_redeliver_ns",
    "transition_jitter_max_ns",
    "spurious_wake_max_ns",
    "stall_duration_ns",
)


@dataclass(frozen=True)
class FaultPlan:
    """One seeded recipe of timing faults (see the module docstring).

    All probabilities are per *opportunity* (per armed timer, per
    monitor fire, per transition, per sleep, per barrier instance), all
    magnitudes in integer nanoseconds. The all-zero default plan is a
    no-op: installing it perturbs nothing.
    """

    name: str = "chaos"
    seed: int = 0
    # -- wake-timer seam (cache controller countdown, Section 3.3.2) --
    timer_drift_probability: float = 0.0
    timer_drift_max_ns: int = 25_000
    timer_loss_probability: float = 0.0
    # -- barrier-flag invalidation seam (external wake-up, 3.3.1) -----
    invalidation_delay_probability: float = 0.0
    invalidation_delay_max_ns: int = 25_000
    invalidation_drop_probability: float = 0.0
    invalidation_redeliver_ns: int = DEFAULT_REDELIVER_NS
    # -- sleep-state transition seam (Table 3 latencies) --------------
    transition_jitter_probability: float = 0.0
    transition_jitter_max_ns: int = 10_000
    # -- spurious wake-up seam (residual spin, 3.3.1) -----------------
    spurious_wake_probability: float = 0.0
    spurious_wake_max_ns: int = 50_000
    # -- straggler seam (context switches / preemption, 3.4.2) --------
    stall_probability: float = 0.0
    stall_duration_ns: int = DEFAULT_STALL_NS

    def __post_init__(self):
        for name in _PROBABILITY_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(
                    "{} must be in [0, 1], got {}".format(name, value)
                )
        for name in _MAGNITUDE_FIELDS:
            value = getattr(self, name)
            if value < 0:
                raise ConfigError(
                    "{} must be non-negative, got {}".format(name, value)
                )
        if self.invalidation_drop_probability > 0 and (
            self.invalidation_redeliver_ns <= 0
        ):
            raise ConfigError(
                "dropped invalidations must be redelivered: set "
                "invalidation_redeliver_ns > 0 (liveness would be lost)"
            )

    @property
    def is_noop(self):
        """True when no seam can ever fire (the all-zero plan)."""
        return all(
            getattr(self, name) == 0.0 for name in _PROBABILITY_FIELDS
        )

    @classmethod
    def sample(cls, seed, name=None, intensity=1.0):
        """Draw a randomized-but-deterministic plan from ``seed``.

        ``intensity`` scales every probability (1.0 keeps each seam
        below ~25% per opportunity, aggressive but recoverable). The
        same seed always yields the same plan — the campaign suite
        relies on this for reproducible chaos.
        """
        if intensity < 0:
            raise ConfigError("intensity must be non-negative")
        rng = random.Random("fault-plan:{}".format(seed))

        def probability(ceiling):
            return min(1.0, round(rng.uniform(0.0, ceiling) * intensity, 4))

        return cls(
            name=name or "plan-{}".format(seed),
            seed=seed,
            timer_drift_probability=probability(0.25),
            timer_drift_max_ns=rng.randint(1_000, 50_000),
            timer_loss_probability=probability(0.15),
            invalidation_delay_probability=probability(0.25),
            invalidation_delay_max_ns=rng.randint(1_000, 50_000),
            invalidation_drop_probability=probability(0.10),
            invalidation_redeliver_ns=rng.randint(20_000, 200_000),
            transition_jitter_probability=probability(0.25),
            transition_jitter_max_ns=rng.randint(500, 20_000),
            spurious_wake_probability=probability(0.20),
            spurious_wake_max_ns=rng.randint(5_000, 100_000),
            stall_probability=probability(0.15),
            stall_duration_ns=rng.randint(
                DEFAULT_CONTEXT_SWITCH_NS, 40 * DEFAULT_CONTEXT_SWITCH_NS
            ),
        )

    def as_dict(self):
        """Field dict (report/JSON-friendly)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}
