"""One schedule, end to end: build, drive, audit.

:func:`run_schedule` is the explorer's unit of work. It assembles the
same live-cell machinery as
:func:`repro.experiments.runner._run_live` — tracer, system, fault
plan, workload — but threads a :class:`~repro.check.tiebreak.TieBreaker`
into the simulator's dispatch loop, then audits the run with *every*
oracle: the four :class:`~repro.faults.invariants.InvariantChecker`
invariants plus the :mod:`repro.check.oracles` pair.

A schedule is identified by its realized decision trace (the
``(arity, choice)`` pairs actually consulted); replays pass the bare
decision string back in and get the identical interleaving.
"""

from dataclasses import dataclass, field

from repro.config import MachineConfig
from repro.errors import ReproError
from repro.check.oracles import (
    SCHEDULE_CRASH,
    check_no_lost_wakeup,
    check_release_safety,
)
from repro.check.tiebreak import ScheduleDriver
from repro.experiments.configs import (
    LIVE_CONFIGS,
    barrier_factory_for,
    check_configs,
)
from repro.experiments.runner import DEFAULT_SEED
from repro.faults.chaos import DEFAULT_DEADLINE_NS
from repro.faults.invariants import (
    InvariantChecker,
    InvariantViolation,
    annotate_window_indices,
)
from repro.machine import System
from repro.telemetry.tracer import Tracer
from repro.workloads import WorkloadRunner, get_model


@dataclass
class ScheduleResult:
    """One audited schedule.

    ``decisions``/``arities`` are the *realized* trace — what the
    tie-breaker was actually asked, which both identifies the schedule
    (visited-set hashing) and replays it (feed ``decisions`` back
    through a :class:`~repro.check.tiebreak.ScheduleDriver`).
    """

    app: str
    config: str
    threads: int
    seed: int
    decisions: tuple = ()
    arities: tuple = ()
    violations: tuple = ()
    stuck_threads: tuple = ()
    executed: int = 0
    execution_time_ns: int = 0
    events: list = field(default_factory=list, repr=False)

    @property
    def ok(self):
        return not self.violations

    @property
    def trace(self):
        """Realized ``(arity, choice)`` pairs (the schedule identity)."""
        return tuple(zip(self.arities, self.decisions))


def _explored_config(config):
    """Map a configuration to the live simulation the explorer drives.

    The derived configurations are deterministic post-hoc replays of
    the Baseline run — they contain no scheduling, so exploring them
    means exploring the Baseline simulation they are derived from
    (exactly how chaos audits them).
    """
    check_configs((config,))
    return config if config in LIVE_CONFIGS else "baseline"


def run_schedule(
    app, config, threads=8, seed=DEFAULT_SEED, decisions=(),
    tie_breaker=None, fault_plan=None, mutant=None, machine_config=None,
    deadline_ns=DEFAULT_DEADLINE_NS,
):
    """Run one interleaving and audit it; returns a
    :class:`ScheduleResult`.

    ``decisions`` is a forced decision prefix (FIFO past its end); pass
    an explicit ``tie_breaker`` instead to use another strategy — the
    realized trace is read back from whichever drives the run.
    ``mutant`` names a :mod:`repro.sync.mutants` variant to run instead
    of the configuration's correct barrier; ``fault_plan`` composes a
    :class:`~repro.faults.plan.FaultPlan` with the exploration (the
    schedule choices happen among whatever events the perturbed machine
    produces). A simulation crash is reported as a ``schedule-crash``
    violation, not raised — a broken schedule is a finding, not an
    error.
    """
    live_config = _explored_config(config)
    if mutant is not None:
        from repro.sync.mutants import mutant_barrier_factory

        factory = mutant_barrier_factory(mutant)
    else:
        factory = barrier_factory_for(live_config)

    chooser = tie_breaker if tie_breaker is not None else ScheduleDriver(
        decisions
    )
    chooser.reset()

    tracer = Tracer()
    system = System(
        machine_config or MachineConfig(n_nodes=threads), telemetry=tracer,
    )
    perturb = None
    if fault_plan is not None and not fault_plan.is_noop:
        from repro.faults.injector import install_fault_plan

        injector = install_fault_plan(system, fault_plan, telemetry=tracer)
        perturb = injector.perturb_hook()
    system.sim.tie_breaker = chooser

    crash = None
    accounts = None
    runner = WorkloadRunner(
        get_model(app),
        system=system,
        n_threads=threads,
        seed=seed,
        barrier_factory=factory,
        perturb=perturb,
    )
    try:
        run = runner.run()
        accounts = run.accounts
    except ReproError as error:
        crash = error

    events = list(tracer.events)
    stuck = tuple(
        process.name for process in system._threads if not process.triggered
    )
    violations = list(
        InvariantChecker(deadline_ns=deadline_ns).check(
            events, accounts=accounts,
        )
    )
    violations.extend(
        check_no_lost_wakeup(events, stuck_threads=stuck, annotate=False)
    )
    violations.extend(
        check_release_safety(events, n_threads=threads, annotate=False)
    )
    if crash is not None:
        violations.append(InvariantViolation(
            invariant=SCHEDULE_CRASH,
            message="simulation raised {}: {}".format(
                type(crash).__name__, crash
            ),
            window=tuple(events[-4:]),
        ))
    violations = annotate_window_indices(violations, events)

    return ScheduleResult(
        app=app,
        config=config,
        threads=threads,
        seed=seed,
        decisions=chooser.decisions,
        arities=chooser.arities,
        violations=tuple(violations),
        stuck_threads=stuck,
        executed=system.sim.executed,
        execution_time_ns=system.sim.now,
        events=events,
    )
