"""Seeded chaos campaigns across the paper's five configurations.

A campaign is a matrix of (application, configuration, fault plan)
cells. Each cell is engine work, a :class:`ChaosCell`: the process that
simulates it runs the cell with the plan installed (the derived oracle
configurations replay their perturbed Baseline), audits the full
telemetry stream with the
:class:`~repro.faults.invariants.InvariantChecker`, and reports what
chaos cost: injected-fault counts, late wake-ups, and the energy and
execution-time deltas against the same cell run clean. A plan's
Baseline, Oracle-Halt and Ideal cells read one perturbed Baseline and
its one audit. The thrifty configurations run with graceful
degradation enabled (:data:`DEGRADED_THRIFTY`) so disabled predictors
fall back to spin-then-sleep and re-enable after probation.

Everything is seeded: the same ``(plans, apps, configs, threads,
seed)`` produce byte-identical reports at any worker count, which is
what lets the chaos CI smoke job diff against a clean baseline.
"""

from dataclasses import dataclass, field

from repro.errors import CampaignInterrupted, ConfigError
from repro.experiments.configs import CONFIG_NAMES, check_configs
from repro.experiments.parallel import ExperimentCell, ExperimentEngine
from repro.experiments.runner import DEFAULT_SEED, run_inspected
from repro.faults.injector import FAULT_KINDS
from repro.faults.invariants import InvariantChecker
from repro.faults.plan import FaultPlan

#: Liveness deadline for campaign cells: a departure more than 10 ms of
#: simulated time after its release is a violation. Generous against
#: the worst recoverable injection (a dropped invalidation redelivered
#: at ≤200 µs plus a Sleep3 wake) yet far below any real hang.
DEFAULT_DEADLINE_NS = 10_000_000

#: Thrifty-policy overrides active during chaos: a cut-off (thread, PC)
#: falls back to spin-then-sleep and is re-enabled after eight
#: consecutive safe episodes. Clean (delta-reference) runs use the same
#: overrides so deltas isolate the injected faults.
DEGRADED_THRIFTY = {
    "probation_episodes": 8,
    "fallback_spin_then_sleep": True,
}

#: Apps exercised when the caller does not choose (small but distinct
#: imbalance profiles).
DEFAULT_APPS = ("fmm",)


def sample_plans(count, seed=0, intensity=1.0):
    """``count`` deterministic plans fanned out from one campaign seed."""
    if count < 1:
        raise ConfigError("a campaign needs at least one plan")
    return [
        FaultPlan.sample(seed + 7919 * index, intensity=intensity)
        for index in range(count)
    ]


def _overrides_for(config):
    return dict(DEGRADED_THRIFTY) if config in (
        "thrifty", "thrifty-halt"
    ) else {}


@dataclass
class ChaosCellReport:
    """One (app, config, plan) chaos run, audited."""

    app: str
    config: str
    plan: FaultPlan
    threads: int
    violations: tuple
    injected: dict
    late_wakes: int
    releases: int
    execution_time_ns: int
    energy_joules: float
    #: Deltas vs. the clean run of the same cell (None without one).
    energy_delta: object = None
    time_delta_ns: object = None

    @property
    def total_injected(self):
        return sum(self.injected.values())


@dataclass
class ChaosCampaignReport:
    """A full campaign: every cell plus roll-up properties.

    ``interrupted`` marks a campaign stopped by preemption before every
    planned cell ran — :attr:`cells` then holds its finished cells in
    sweep order (never discarded), ``planned`` what a full run would
    contain, and ``run_id`` (when journaled) what to pass to
    ``--resume``. ``resumed_cells`` counts the chaos cells (not the
    clean references) restored from the run's result store instead of
    re-simulated. ``stopped_early`` marks a ``fail_fast`` campaign whose
    report ends at its first violating cell.
    """

    cells: list = field(default_factory=list)
    deadline_ns: int = DEFAULT_DEADLINE_NS
    planned: int = 0
    interrupted: bool = False
    run_id: str = ""
    resumed_cells: int = 0
    stopped_early: bool = False

    @property
    def violations(self):
        return tuple(
            violation for cell in self.cells for violation in cell.violations
        )

    @property
    def ok(self):
        return not self.violations

    @property
    def total_injected(self):
        return sum(cell.total_injected for cell in self.cells)

    @property
    def total_late_wakes(self):
        return sum(cell.late_wakes for cell in self.cells)


@dataclass(frozen=True)
class _Audit:
    """What a chaos cell reads off its simulation, once per simulation
    (:func:`~repro.experiments.runner.run_inspected`): the invariant
    violations and the fault, late-wake and release counters."""

    deadline_ns: int

    def __call__(self, run, tracer):
        violations = InvariantChecker(deadline_ns=self.deadline_ns).audit(
            tracer.events, accounts=run.accounts, tracer=tracer,
        )
        counters = tracer.metrics.snapshot().get("counters", {})
        return {
            "violations": tuple(violations),
            "injected": {
                kind: counters["fault.kind[{}]".format(kind)]
                for kind in FAULT_KINDS
                if "fault.kind[{}]".format(kind) in counters
            },
            "late_wakes": counters.get("wake.late", 0),
            "releases": counters.get("barrier.releases", 0),
        }


def run_chaos_cell(
    app, config, plan, threads=16, seed=DEFAULT_SEED,
    machine_config=None, deadline_ns=DEFAULT_DEADLINE_NS,
):
    """Run and audit one chaos cell; returns a :class:`ChaosCellReport`
    without deltas (:func:`run_chaos_campaign` fills them in)."""
    result, audit = run_inspected(
        app, config, _Audit(deadline_ns), threads=threads, seed=seed,
        machine_config=machine_config, fault_plan=plan,
        **_overrides_for(config)
    )
    return ChaosCellReport(
        app=app,
        config=config,
        plan=plan,
        threads=threads,
        execution_time_ns=result.execution_time_ns,
        energy_joules=result.energy_joules,
        **audit
    )


@dataclass(frozen=True)
class ChaosCell(ExperimentCell):
    """One (app, config, plan) cell as engine work: its result is its
    :class:`ChaosCellReport`. Its key adds the plan and deadline to a
    fault-free cell's, so it never equals a clean result's (a no-op
    plan's included); the plan joins its unit key too."""

    plan: FaultPlan = None
    deadline_ns: int = DEFAULT_DEADLINE_NS

    def key(self):
        return super().key(plan=self.plan, deadline_ns=self.deadline_ns)

    def run(self):
        return run_chaos_cell(
            self.app, self.config, self.plan, threads=self.threads,
            seed=self.seed, machine_config=self.machine_config,
            deadline_ns=self.deadline_ns,
        )


def run_chaos_campaign(
    plans, apps=DEFAULT_APPS, configs=CONFIG_NAMES, threads=16,
    seed=DEFAULT_SEED, machine_config=None,
    deadline_ns=DEFAULT_DEADLINE_NS, journal=None, preemption=None,
    fail_fast=False, workers=1,
):
    """Sweep apps × configs × plans; returns a
    :class:`ChaosCampaignReport`.

    One ``run_cells`` call on an
    :class:`~repro.experiments.parallel.ExperimentEngine` of
    ``workers`` runs every (app, config) clean reference (with the
    config's chaos overrides), then every :class:`ChaosCell` in sweep
    order: app, then config, then plan. Each report's deltas come from
    its clean reference; a failing cell raises
    :class:`~repro.errors.ExperimentError`. The engine's ``journal``
    store restores finished cells on resume, and its ``preemption``
    drain makes the report *return* its finished cells, flagged
    ``interrupted``. ``fail_fast`` ends the report at the first
    violating cell (``stopped_early``); the engine still runs the
    whole sweep.
    """
    configs = check_configs(configs)
    sweep = [(app, config) for app in apps for config in configs]
    references = [
        ExperimentCell.make(
            app, config, threads=threads, seed=seed,
            machine_config=machine_config, **_overrides_for(config)
        )
        for app, config in sweep
    ]
    cells = [
        ChaosCell(
            app=app, config=config, threads=threads, seed=seed,
            machine_config=machine_config, plan=plan,
            deadline_ns=deadline_ns,
        )
        for app, config in sweep
        for plan in plans
    ]
    report = ChaosCampaignReport(deadline_ns=deadline_ns, planned=len(cells))
    store = None
    if journal is not None:
        report.run_id = journal.run_id
        store = journal.result_store()
        # A read, not a presence test: a corrupt entry is evicted here
        # and re-run, so it does not count as restored.
        report.resumed_cells = sum(
            store.get(cell.key()) is not None for cell in cells
        )
    engine = ExperimentEngine(
        workers, cache=store, journal=journal, preemption=preemption,
        strict=True,
    )
    try:
        results = engine.run_cells(references + cells)
    except CampaignInterrupted as stop:
        report.interrupted = True
        results = stop.results
    clean = results[:len(references)]
    for index, cell in enumerate(results[len(references):]):
        if cell is None:
            continue
        reference = clean[index // len(plans)]
        if reference is not None:
            cell.energy_delta = cell.energy_joules - reference.energy_joules
            cell.time_delta_ns = (
                cell.execution_time_ns - reference.execution_time_ns
            )
        report.cells.append(cell)
        if fail_fast and cell.violations:
            report.stopped_early = True
            break
    return report


def chaos_report_as_dict(report):
    """JSON-friendly form of a campaign report (``repro chaos --json``).

    Every violation is embedded via
    :meth:`~repro.faults.invariants.InvariantViolation.as_dict`, so the
    report carries the offending event window — first/last stream index
    plus timestamps — pointing straight into the cell's trace export.
    """
    return {
        "kind": "chaos-campaign",
        "deadline_ns": report.deadline_ns,
        "planned": report.planned,
        "interrupted": report.interrupted,
        "stopped_early": report.stopped_early,
        "run_id": report.run_id,
        "resumed_cells": report.resumed_cells,
        "ok": report.ok,
        "total_injected": report.total_injected,
        "total_late_wakes": report.total_late_wakes,
        "cells": [
            {
                "app": cell.app,
                "config": cell.config,
                "plan": cell.plan.as_dict(),
                "threads": cell.threads,
                "injected": dict(cell.injected),
                "late_wakes": cell.late_wakes,
                "releases": cell.releases,
                "execution_time_ns": cell.execution_time_ns,
                "energy_joules": cell.energy_joules,
                "energy_delta": cell.energy_delta,
                "time_delta_ns": cell.time_delta_ns,
                "violations": [
                    violation.as_dict() for violation in cell.violations
                ],
            }
            for cell in report.cells
        ],
    }


def render_chaos_report(report):
    """Human-readable campaign summary (the ``repro chaos`` output)."""
    from repro.experiments.report import render_table

    rows = []
    for cell in report.cells:
        energy_delta = (
            "{:+.2%}".format(
                cell.energy_delta
                / (cell.energy_joules - cell.energy_delta)
            )
            if cell.energy_delta is not None
            and cell.energy_joules != cell.energy_delta
            else "-"
        )
        time_delta = (
            "{:+,} ns".format(cell.time_delta_ns)
            if cell.time_delta_ns is not None else "-"
        )
        rows.append((
            cell.app,
            cell.config,
            cell.plan.name,
            cell.total_injected,
            cell.releases,
            cell.late_wakes,
            len(cell.violations),
            energy_delta,
            time_delta,
        ))
    lines = [render_table(
        (
            "App", "Config", "Plan", "Faults", "Releases", "Late",
            "Violations", "dE", "dT",
        ),
        rows,
        title="Chaos campaign ({} cells, deadline {:,} ns)".format(
            len(report.cells), report.deadline_ns
        ),
    )]
    for violation in report.violations:
        lines.append("VIOLATION " + violation.describe())
    if report.resumed_cells:
        lines.append(
            "{} cell(s) restored from the run journal (not re-run)".format(
                report.resumed_cells
            )
        )
    if report.stopped_early:
        lines.append(
            "STOPPED EARLY (--fail-fast): {} of {} planned cell(s) ran "
            "before the first violation".format(
                len(report.cells), report.planned
            )
        )
    if report.interrupted:
        lines.append(
            "INTERRUPTED (resumable): {} of {} planned cell(s) finished "
            "before preemption; partial results above".format(
                len(report.cells), report.planned
            )
        )
    lines.append(
        "{}: {} fault(s) injected, {} late wake-up(s), "
        "{} invariant violation(s)".format(
            "OK" if report.ok else "FAILED",
            report.total_injected,
            report.total_late_wakes,
            len(report.violations),
        )
    )
    return "\n".join(lines)
