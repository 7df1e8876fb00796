"""Seeded chaos campaigns across the paper's five configurations.

A campaign is a matrix of (application, configuration, fault plan)
cells. Each cell runs one live simulation with the plan installed (the
derived oracle configurations replay their perturbed Baseline), audits
the full telemetry stream with the
:class:`~repro.faults.invariants.InvariantChecker`, and reports what
chaos cost: injected-fault counts, late wake-ups, and the energy and
execution-time deltas against the same cell run clean. The thrifty
configurations run with graceful degradation enabled
(:data:`DEGRADED_THRIFTY`) so disabled predictors fall back to
spin-then-sleep and re-enable after probation.

The clean references are ordinary engine cells, run once per
application (three simulations for five configurations); a journaled
campaign keeps them and its cell reports in its run's result store.

Everything is seeded: the same ``(plans, apps, configs, threads,
seed)`` produce byte-identical reports, which is what lets the chaos
CI smoke job diff against a clean baseline.
"""

import hashlib
from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.experiments.configs import (
    CONFIG_NAMES,
    LIVE_CONFIGS,
    check_configs,
)
from repro.experiments.parallel import ExperimentCell, ExperimentEngine
from repro.experiments.runner import (
    DEFAULT_SEED,
    _derived_result,
    _live_result,
    _run_live,
)
from repro.faults.injector import FAULT_KINDS
from repro.faults.invariants import InvariantChecker
from repro.faults.plan import FaultPlan
from repro.telemetry.tracer import Tracer

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
    def ok(self):
        return not self.violations

    @property
    def total_injected(self):
        return sum(self.injected.values())


@dataclass
class ChaosCampaignReport:
    """A full campaign: every cell plus roll-up properties.

    ``interrupted`` marks a campaign stopped by preemption before every
    planned cell ran — :attr:`cells` then holds the partial results
    (never discarded), ``planned`` what a full run would contain, and
    ``run_id`` (when journaled) what to pass to ``--resume``.
    ``resumed_cells`` counts cells restored from the run's result store
    instead of re-simulated. ``stopped_early`` marks a
    ``fail_fast`` campaign that stopped at its first violating cell.
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


def run_chaos_cell(
    app, config, plan, threads=16, seed=DEFAULT_SEED,
    machine_config=None, deadline_ns=DEFAULT_DEADLINE_NS, clean=None,
):
    """Run and audit one chaos cell; returns a :class:`ChaosCellReport`.

    ``clean`` is an optional :class:`~repro.experiments.runner.
    ExperimentResult` of the same cell without a plan, used for the
    energy/time deltas.
    """
    check_configs((config,))
    tracer = Tracer()
    overrides = _overrides_for(config)
    if config in LIVE_CONFIGS:
        run = _run_live(
            app, config, threads, seed, machine_config, overrides,
            telemetry=tracer, fault_plan=plan,
        )
        result = _live_result(app, config, run)
    else:
        run = _run_live(
            app, "baseline", threads, seed, machine_config, {},
            telemetry=tracer, fault_plan=plan,
        )
        result = _derived_result(app, config, run)
    checker = InvariantChecker(deadline_ns=deadline_ns)
    violations = checker.audit(
        tracer.events, accounts=run.accounts, tracer=tracer,
    )
    counters = tracer.metrics.snapshot().get("counters", {})
    injected = {
        kind: counters["fault.kind[{}]".format(kind)]
        for kind in FAULT_KINDS
        if "fault.kind[{}]".format(kind) in counters
    }
    report = ChaosCellReport(
        app=app,
        config=config,
        plan=plan,
        threads=threads,
        violations=tuple(violations),
        injected=injected,
        late_wakes=counters.get("wake.late", 0),
        releases=counters.get("barrier.releases", 0),
        execution_time_ns=result.execution_time_ns,
        energy_joules=result.energy_joules,
    )
    if clean is not None:
        report.energy_delta = result.energy_joules - clean.energy_joules
        report.time_delta_ns = (
            result.execution_time_ns - clean.execution_time_ns
        )
    return report


def _clean_references(engine, app, configs, threads, seed,
                      machine_config):
    """``{config: result}`` of ``app`` run without a plan, each config
    with its chaos overrides, on ``engine``."""
    cells = [
        ExperimentCell.make(
            app, config, threads=threads, seed=seed,
            machine_config=machine_config, **_overrides_for(config)
        )
        for config in configs
    ]
    return dict(zip(configs, engine.run_cells(cells)))


def run_chaos_campaign(
    plans, apps=DEFAULT_APPS, configs=CONFIG_NAMES, threads=16,
    seed=DEFAULT_SEED, machine_config=None,
    deadline_ns=DEFAULT_DEADLINE_NS, journal=None, preemption=None,
    fail_fast=False,
):
    """Sweep plans × apps × configs; returns a
    :class:`ChaosCampaignReport`.

    Just before an app's first cell runs, its clean references run as
    :class:`~repro.experiments.parallel.ExperimentCell` cells on an
    engine, each with its config's chaos overrides, so the Baseline,
    Oracle-Halt and Ideal references share one Baseline simulation; a
    failing one raises :class:`~repro.errors.ExperimentError`.

    Crash safety: with a ``journal``
    (:class:`~repro.experiments.journal.RunJournal`), the run's result
    store keeps every finished cell's report, keyed by the sha256 of
    its journal cell id, and the clean references, which the engine
    caches under their content keys. A resumed campaign restores them
    instead of re-simulating; results are byte-identical either way
    (the cells are seeded). With ``preemption`` (anything exposing
    ``requested``), a SIGTERM/SIGINT between cells — or a raw
    ``KeyboardInterrupt`` mid-cell — ends the campaign gracefully: the
    partial report is *returned*, never discarded, flagged
    ``interrupted`` so the CLI can exit with the resumable status.

    ``fail_fast`` stops the sweep at the first violating cell (restored
    or freshly run) and flags the report ``stopped_early`` — the
    violating cell is the last in :attr:`~ChaosCampaignReport.cells`.
    """
    configs = check_configs(configs)
    apps = tuple(apps)
    report = ChaosCampaignReport(
        deadline_ns=deadline_ns,
        planned=len(apps) * len(configs) * len(plans),
    )
    store = state = None
    if journal is not None:
        report.run_id = journal.run_id
        store = journal.result_store()
        state = journal.replay()
    engine = ExperimentEngine(cache=store, strict=True)

    def preempted():
        return preemption is not None and bool(
            getattr(preemption, "requested", False)
        )

    def mark_interrupted(reason):
        report.interrupted = True
        if journal is not None:
            journal.record_interrupted(
                reason, len(report.cells), report.planned
            )

    try:
        for app in apps:
            clean = None
            for config in configs:
                for plan_index, plan in enumerate(plans):
                    if preempted():
                        mark_interrupted(
                            getattr(preemption, "reason", "request")
                        )
                        return report
                    cell_id = "{}/{}/plan{}".format(app, config, plan_index)
                    key = hashlib.sha256(cell_id.encode("utf-8")).hexdigest()
                    cell = None
                    if state is not None and cell_id in state.completed:
                        cell = store.get(key)
                    if cell is not None:
                        report.resumed_cells += 1
                    else:
                        if clean is None:
                            clean = _clean_references(
                                engine, app, configs, threads, seed,
                                machine_config,
                            )
                        if journal is not None:
                            journal.record_dispatched(cell_id)
                        cell = run_chaos_cell(
                            app, config, plan, threads=threads, seed=seed,
                            machine_config=machine_config,
                            deadline_ns=deadline_ns, clean=clean[config],
                        )
                        if journal is not None:
                            store.put(key, cell)
                            journal.record_completed(cell_id)
                    report.cells.append(cell)
                    if fail_fast and cell.violations:
                        report.stopped_early = True
                        return report
    except KeyboardInterrupt:
        # A raw Ctrl-C mid-simulation (no guard installed, or the
        # operator pressed it twice): still report what finished.
        mark_interrupted("SIGINT")
        return report
    if journal is not None:
        journal.record_finished(completed=len(report.cells), failed=0)
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
