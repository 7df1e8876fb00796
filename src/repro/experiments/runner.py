"""Run (application x configuration) experiment cells.

The unit of work is :func:`run_experiment`; :func:`run_app` produces all
five configurations for one application (sharing one Baseline run for
the two derived oracles); :func:`run_matrix` sweeps applications —
everything Figures 5 and 6 need.

Sharing never bypasses :func:`run_experiment`: :func:`run_app` and the
engine's workers run a Baseline cell and the derived cells that replay
it inside :func:`_shared_baseline`, where the untraced, fault-free
Baseline and derived cells of one (app, threads, seed, machine config)
read one Baseline simulation.
"""

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

from repro.config import MachineConfig
from repro.energy.accounting import EnergyAccount
from repro.errors import WorkloadError
from repro.experiments.configs import (
    CONFIG_NAMES,
    DERIVED_CONFIGS,
    ORACLE_STATES,
    barrier_factory_for,
    check_configs,
)
from repro.machine import System
from repro.sync import ThriftyBarrier, oracle_rerun
from repro.telemetry.tracer import (
    TelemetrySnapshot,
    Tracer,
    collect_run_metrics,
)
from repro.workloads import WorkloadRunner, get_model

DEFAULT_SEED = 1


@dataclass
class ExperimentResult:
    """One (application, configuration) measurement.

    ``telemetry`` is populated only when the cell was run with tracing
    requested: the full typed event stream and the metrics snapshot of
    the simulation that produced this result (for the derived oracle
    configurations, of the Baseline simulation they replay).
    """

    app: str
    config: str
    n_threads: int
    execution_time_ns: int
    total: EnergyAccount
    barrier_imbalance: float
    thrifty_stats: dict = field(default_factory=dict)
    oracle_meta: Optional[dict] = None
    telemetry: Optional[TelemetrySnapshot] = None

    @property
    def energy_joules(self):
        return self.total.energy_joules()

    def energy_breakdown(self):
        return self.total.energy_breakdown()

    def time_breakdown(self):
        return self.total.time_breakdown()

    def identical(self, other):
        """Field-for-field equality, including energy/time breakdowns,
        thrifty stats, and oracle metadata (the determinism contract
        between serial, parallel, and cached execution)."""
        return (
            isinstance(other, ExperimentResult)
            and self.app == other.app
            and self.config == other.config
            and self.n_threads == other.n_threads
            and self.execution_time_ns == other.execution_time_ns
            and self.barrier_imbalance == other.barrier_imbalance
            and self.energy_breakdown() == other.energy_breakdown()
            and self.time_breakdown() == other.time_breakdown()
            and self.thrifty_stats == other.thrifty_stats
            and self.oracle_meta == other.oracle_meta
            and self.telemetry == other.telemetry
        )


def _summarize_thrifty(barriers):
    totals = {}
    for barrier in barriers.values():
        if not isinstance(barrier, ThriftyBarrier):
            continue
        stats = barrier.stats
        for key in (
            "sleeps", "spin_fallbacks", "cold_spins", "disabled_spins",
            "aborted_sleeps", "timer_wakes", "invalidation_wakes",
            "cutoff_disables", "filtered_updates",
        ):
            totals[key] = totals.get(key, 0) + getattr(stats, key)
        # Degradation/fault counters appear only when they fired, so a
        # clean run's stats dict stays bit-identical to the pre-fault
        # era (the same data-dependent idiom as ``sleeps[state]``).
        for key in (
            "spurious_wakes", "fallback_sleeps", "probation_reenables",
        ):
            value = getattr(stats, key)
            if value:
                totals[key] = totals.get(key, 0) + value
        for state, count in stats.sleeps_by_state.items():
            key = "sleeps[{}]".format(state)
            totals[key] = totals.get(key, 0) + count
    return totals


def _live_result(app, config_name, run):
    return ExperimentResult(
        app=app,
        config=config_name,
        n_threads=run.n_threads,
        execution_time_ns=run.execution_time_ns,
        total=run.total,
        barrier_imbalance=run.barrier_imbalance(),
        thrifty_stats=_summarize_thrifty(run.barriers),
    )


def _derived_result(app, config_name, baseline_run):
    states = ORACLE_STATES[config_name]
    replay = oracle_rerun(
        baseline_run.trace,
        baseline_run.accounts,
        baseline_run.power,
        states,
    )
    total = EnergyAccount()
    for account in replay.accounts:
        total.merge(account)
    return ExperimentResult(
        app=app,
        config=config_name,
        n_threads=baseline_run.n_threads,
        execution_time_ns=baseline_run.execution_time_ns,
        total=total,
        barrier_imbalance=baseline_run.barrier_imbalance(),
        oracle_meta={
            "sleeps_by_state": dict(replay.sleeps_by_state),
            "spin_stalls": replay.spin_stalls,
            "slept_stalls": replay.slept_stalls,
        },
    )


def _run_live(
    app, config_name, threads, seed, machine_config, overrides,
    telemetry=None, fault_plan=None,
):
    model = get_model(app)
    system = System(machine_config or MachineConfig(), telemetry=telemetry)
    perturb = None
    if fault_plan is not None and not fault_plan.is_noop:
        from repro.faults.injector import install_fault_plan

        injector = install_fault_plan(system, fault_plan, telemetry=telemetry)
        perturb = injector.perturb_hook()
    runner = WorkloadRunner(
        model,
        system=system,
        n_threads=threads,
        seed=seed,
        barrier_factory=barrier_factory_for(config_name, **overrides),
        perturb=perturb,
    )
    run = runner.run()
    if telemetry is not None and telemetry.enabled:
        collect_run_metrics(telemetry, system, run)
    return run


#: Configurations whose cells read the Baseline simulation.
_BASELINE_READERS = ("baseline",) + DERIVED_CONFIGS

#: The one-entry Baseline slot :func:`_shared_baseline` arms: ``None``
#: outside the block, else ``[key, run]`` of the last Baseline simulated
#: inside it. Module state rather than an argument, so every cell still
#: runs through ``run_experiment`` with exactly its own fields.
_baseline_slot = None


@contextmanager
def _shared_baseline():
    """Let the Baseline and derived cells run in the block share one
    Baseline simulation.

    The slot keeps only the latest Baseline run, and the engine wraps
    each unit (a Baseline cell plus the derived cells that replay it)
    in its own block, so the run is dropped as soon as its unit ends.
    Traced or fault-injected cells never share: their result carries,
    or is shaped by, their own simulation.
    """
    global _baseline_slot
    _baseline_slot = [None, None]
    try:
        yield
    finally:
        _baseline_slot = None


def _baseline_key(app, threads, seed, machine_config):
    """What identifies one Baseline simulation."""
    return app, threads, seed, machine_config or MachineConfig()


def _simulation_cost(app, threads):
    """Relative host cost of one live simulation of ``app``: its dynamic
    barrier instances times the threads that check in at each. ``0`` for
    an application :func:`get_model` does not know (its cell fails at
    once)."""
    try:
        return get_model(app).dynamic_instances * threads
    except WorkloadError:
        return 0


def _baseline_run(app, threads, seed, machine_config, tracer, fault_plan):
    """The Baseline run a Baseline or derived cell reads, from the armed
    slot when the cell may share it."""
    slot = _baseline_slot
    shared = slot is not None and tracer is None and (
        fault_plan is None or fault_plan.is_noop
    )
    if shared:
        key = _baseline_key(app, threads, seed, machine_config)
        if slot[0] == key:
            return slot[1]
    run = _run_live(
        app, "baseline", threads, seed, machine_config, {},
        telemetry=tracer, fault_plan=fault_plan,
    )
    if shared:
        slot[:] = key, run
    return run


def _coerce_tracer(telemetry):
    """Normalize ``run_experiment``'s ``telemetry`` argument.

    ``False``/``None`` → no tracing; ``True`` → a fresh enabled
    :class:`~repro.telemetry.tracer.Tracer`; an existing tracer is used
    as-is.
    """
    if not telemetry:
        return None
    if telemetry is True:
        return Tracer()
    return telemetry


def run_experiment(
    app, config, threads=64, seed=DEFAULT_SEED,
    machine_config=None, telemetry=False, fault_plan=None,
    **thrifty_overrides,
):
    """Run one cell; derived configurations run their Baseline first.

    Inside :func:`_shared_baseline`, an untraced, fault-free Baseline or
    derived cell reuses the Baseline run an earlier cell of the same
    (app, threads, seed, machine config) left in the block, so the
    engine simulates it once per unit. The result is field-identical
    either way.

    With ``telemetry`` truthy (``True`` or a
    :class:`~repro.telemetry.tracer.Tracer`), the simulation is traced
    and the result carries a
    :class:`~repro.telemetry.tracer.TelemetrySnapshot`; for derived
    (oracle) configurations this is the snapshot of the Baseline
    simulation they replay. ``fault_plan`` optionally installs a
    :class:`~repro.faults.plan.FaultPlan` into the live simulation
    (derived configurations replay their perturbed Baseline); ``None``
    or a no-op plan leaves the machine untouched. Returns an
    :class:`ExperimentResult`.
    """
    check_configs((config,))
    tracer = _coerce_tracer(telemetry)
    if config in _BASELINE_READERS:
        # The Baseline barrier takes no thrifty overrides.
        run = _baseline_run(
            app, threads, seed, machine_config, tracer, fault_plan
        )
        if config == "baseline":
            result = _live_result(app, config, run)
        else:
            result = _derived_result(app, config, run)
    else:
        run = _run_live(
            app, config, threads, seed, machine_config, thrifty_overrides,
            telemetry=tracer, fault_plan=fault_plan,
        )
        result = _live_result(app, config, run)
    if tracer is not None:
        result.telemetry = tracer.snapshot()
    return result


def run_app(
    app, threads=64, seed=DEFAULT_SEED, machine_config=None, configs=None,
):
    """All requested configurations for one application.

    The cells run in one :func:`_shared_baseline` block, so the Baseline
    simulation is shared by the two derived oracles and a full five-way
    comparison costs three live runs.
    """
    with _shared_baseline():
        return {
            config: run_experiment(
                app, config, threads=threads, seed=seed,
                machine_config=machine_config,
            )
            for config in configs or CONFIG_NAMES
        }


def run_matrix(
    apps=None, threads=64, seed=DEFAULT_SEED,
    machine_config=None, configs=None,
    workers=1, cache=None, timeout=None, retries=1, strict=True,
    metrics=None, journal=None, preemption=None, watchdog=None,
):
    """The full evaluation sweep: {app: {config: ExperimentResult}}.

    Every call runs on an
    :class:`~repro.experiments.parallel.ExperimentEngine`: serially
    in-process at ``workers=1``, else fanned out over worker processes,
    with the on-disk result cache when ``cache`` is given. Either way
    each Baseline simulates once for its derived cells, and the results
    are field-identical for the same seed.

    ``cache`` is ``None`` (off), ``True`` (default directory), a path,
    or a :class:`~repro.experiments.cache.ResultCache`. A failing cell
    raises :class:`~repro.errors.ExperimentError`; with
    ``strict=False`` it is returned in-place as a
    :class:`~repro.experiments.parallel.CellFailure` instead.

    ``metrics`` is an optional
    :class:`~repro.telemetry.metrics.MetricsRegistry`; when given, the
    engine and result-cache counters (submitted / executed / cache
    hits, misses, errors) are recorded into it, which is how the CLI
    surfaces them in its run summary.

    Crash safety rides three optional arguments, all forwarded to the
    engine: ``journal`` (a :class:`~repro.experiments.journal.
    RunJournal` durably recording per-cell progress), ``preemption``
    (a :class:`~repro.experiments.preemption.PreemptionGuard`-like
    object turning SIGTERM/SIGINT into a graceful
    :class:`~repro.errors.CampaignInterrupted`), and ``watchdog`` (a
    hung-worker heartbeat policy).
    """
    from repro.experiments.parallel import (
        ExperimentEngine,
        record_engine_metrics,
    )
    from repro.workloads.splash2 import SPLASH2_NAMES

    engine = ExperimentEngine(
        workers=workers, cache=cache, timeout=timeout,
        retries=retries, strict=strict, journal=journal,
        preemption=preemption, watchdog=watchdog,
    )
    try:
        matrix = engine.run_matrix(
            apps or SPLASH2_NAMES, configs=configs, threads=threads,
            seed=seed, machine_config=machine_config,
        )
    finally:
        # Recorded even on CampaignInterrupted: a preempted run's
        # partial counters are exactly what the operator needs to see.
        if metrics is not None:
            record_engine_metrics(metrics, engine)
    return matrix
