"""Reproduction of the Thrifty Barrier (Li, Martinez, Huang; HPCA 2004).

The package is organized bottom-up:

* :mod:`repro.sim` -- deterministic discrete-event kernel;
* :mod:`repro.energy` -- Wattch-style power model, sleep states, accounting;
* :mod:`repro.interconnect` / :mod:`repro.coherence` -- hypercube network and
  directory-MESI coherence with the thrifty cache-controller extensions;
* :mod:`repro.machine` -- CPUs with sleep-state machines, nodes, the 64-node
  CC-NUMA system of the paper's Table 1;
* :mod:`repro.predict` -- BIT/BRTS/BST bookkeeping and predictors;
* :mod:`repro.sync` -- conventional, thrifty, oracle, and baseline barriers;
* :mod:`repro.workloads` -- SPLASH-2-calibrated workload models;
* :mod:`repro.telemetry` -- structured tracing, metrics, and timeline export;
* :mod:`repro.experiments` -- the harness reproducing every table and figure.

The top-level names below are loaded lazily so that importing a low-level
subpackage (for instance :mod:`repro.sim` in a unit test) does not pull in
the whole stack. :func:`lazy_exports` gives :mod:`repro.experiments`,
:mod:`repro.serve` and :mod:`repro.faults` the same behaviour, so a
command that reads only the result cache never imports the simulator.
"""

__version__ = "1.6.0"

_LAZY = {
    "MachineConfig": ("repro.config", "MachineConfig"),
    "SleepStateConfig": ("repro.config", "SleepStateConfig"),
    "ThriftyConfig": ("repro.config", "ThriftyConfig"),
    "CONFIG_NAMES": ("repro.experiments.configs", "CONFIG_NAMES"),
    "run_experiment": ("repro.experiments.runner", "run_experiment"),
    "run_matrix": ("repro.experiments.runner", "run_matrix"),
    "MetricsRegistry": ("repro.telemetry.metrics", "MetricsRegistry"),
    "Tracer": ("repro.telemetry.tracer", "Tracer"),
    "TelemetrySnapshot": ("repro.telemetry.tracer", "TelemetrySnapshot"),
    "FaultPlan": ("repro.faults.plan", "FaultPlan"),
    "FaultInjector": ("repro.faults.injector", "FaultInjector"),
    "install_fault_plan": ("repro.faults.injector", "install_fault_plan"),
    "InvariantChecker": ("repro.faults.invariants", "InvariantChecker"),
    "run_chaos_campaign": ("repro.faults.chaos", "run_chaos_campaign"),
    "sample_plans": ("repro.faults.chaos", "sample_plans"),
}

__all__ = sorted(_LAZY) + ["__version__"]


def lazy_exports(namespace, table):
    """The module ``__getattr__`` and ``__dir__`` of a package whose
    ``table`` names (``name -> (module, attribute)``) are imported on
    first use and then cached in ``namespace``, its ``globals()``."""

    def __getattr__(name):
        try:
            module_name, attr = table[name]
        except KeyError:
            raise AttributeError(
                "module {!r} has no attribute {!r}".format(
                    namespace["__name__"], name
                )
            ) from None
        import importlib

        value = getattr(importlib.import_module(module_name), attr)
        namespace[name] = value
        return value

    def __dir__():
        return namespace["__all__"]

    return __getattr__, __dir__


__getattr__, __dir__ = lazy_exports(globals(), _LAZY)
