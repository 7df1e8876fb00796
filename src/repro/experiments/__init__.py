"""The evaluation harness: every table and figure of the paper.

* :mod:`repro.experiments.configs` — the five configurations of
  Section 5.1 (Baseline, Thrifty-Halt, Oracle-Halt, Thrifty, Ideal);
* :mod:`repro.experiments.runner` — runs (application x configuration)
  cells; oracle configurations are derived exactly from the Baseline
  run (see :mod:`repro.sync.oracle`);
* :mod:`repro.experiments.metrics` — normalization and the headline
  aggregates of Section 5.1;
* :mod:`repro.experiments.tables` — Tables 1, 2, 3;
* :mod:`repro.experiments.figures` — Figures 3, 5, 6;
* :mod:`repro.experiments.report` — plain-text rendering;
* :mod:`repro.experiments.parallel` — the process-pool engine fanning
  cells over workers with deterministic ordering and fault isolation;
* :mod:`repro.experiments.pool` — the watchdog-supervised fork worker
  pool the engine and ``repro serve`` run cells on;
* :mod:`repro.experiments.cache` — the content-addressed on-disk
  result cache that makes warm re-runs free;
* :mod:`repro.experiments.journal` — the durable append-only run
  journal that makes killed campaigns resumable;
* :mod:`repro.experiments.watchdog` — the hung-worker heartbeat
  watchdog (kill and requeue on stale beats);
* :mod:`repro.experiments.preemption` — SIGTERM/SIGINT handling that
  turns preemption into a graceful, resumable stop.

Every name below is imported on first use, so reading one module (the
result cache, say) does not load the simulator.
"""

from repro import lazy_exports

_LAZY = {
    "CONFIG_NAMES": ("repro.experiments.configs", "CONFIG_NAMES"),
    "CONFIG_SHORT": ("repro.experiments.configs", "CONFIG_SHORT"),
    "CellFailure": ("repro.experiments.parallel", "CellFailure"),
    "DERIVED_CONFIGS": ("repro.experiments.configs", "DERIVED_CONFIGS"),
    "EXIT_RESUMABLE": ("repro.experiments.preemption", "EXIT_RESUMABLE"),
    "ExperimentCell": ("repro.experiments.parallel", "ExperimentCell"),
    "ExperimentEngine": ("repro.experiments.parallel", "ExperimentEngine"),
    "ExperimentResult": ("repro.experiments.runner", "ExperimentResult"),
    "HeartbeatMonitor": ("repro.experiments.watchdog", "HeartbeatMonitor"),
    "LIVE_CONFIGS": ("repro.experiments.configs", "LIVE_CONFIGS"),
    "PreemptionGuard": ("repro.experiments.preemption", "PreemptionGuard"),
    "ResultCache": ("repro.experiments.cache", "ResultCache"),
    "RunJournal": ("repro.experiments.journal", "RunJournal"),
    "WatchdogPolicy": ("repro.experiments.watchdog", "WatchdogPolicy"),
    "content_key": ("repro.experiments.cache", "content_key"),
    "run_experiment": ("repro.experiments.runner", "run_experiment"),
    "run_matrix": ("repro.experiments.runner", "run_matrix"),
    "spec_hash": ("repro.experiments.journal", "spec_hash"),
}

__all__ = sorted(_LAZY)

__getattr__, __dir__ = lazy_exports(globals(), _LAZY)
