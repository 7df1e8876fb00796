"""Deterministic fault injection and invariant checking.

Three layers:

* :mod:`repro.faults.plan` — :class:`FaultPlan`, the seeded declarative
  recipe of timing faults;
* :mod:`repro.faults.injector` — :class:`FaultInjector`, which executes
  a plan against one simulator through the narrow seams in the
  coherence controller and CPU sleep path (no-ops when absent);
* :mod:`repro.faults.invariants` — :class:`InvariantChecker`, the
  post-run watchdog holding any run (faulted or not) to barrier
  safety/liveness, monotonic time, and energy conservation;
* :mod:`repro.faults.storage` — :class:`StorageFaultInjector`, the
  same idea aimed at the repo's own durability layer: seeded ENOSPC /
  EIO / torn-write / crash-at-fsync injection behind the I/O shim the
  journal and result cache write through;
* :mod:`repro.faults.netchaos` — :class:`ChaosProxy`, an in-process
  TCP forwarder injecting delays, drops, truncation, and corruption
  between a serve client and its server.

:mod:`repro.faults.chaos` sweeps sampled plans across the paper's
five configurations; the CLI surfaces it as ``repro chaos``.

Every name below is imported on first use, so the storage seam the
journal and result cache write through does not load the simulator.
"""

from repro import lazy_exports

_LAZY = {
    "BARRIER_LIVENESS": ("repro.faults.invariants", "BARRIER_LIVENESS"),
    "BARRIER_SAFETY": ("repro.faults.invariants", "BARRIER_SAFETY"),
    "ChaosProxy": ("repro.faults.netchaos", "ChaosProxy"),
    "ENERGY_CONSERVATION": ("repro.faults.invariants", "ENERGY_CONSERVATION"),
    "FAULT_KINDS": ("repro.faults.injector", "FAULT_KINDS"),
    "FaultInjector": ("repro.faults.injector", "FaultInjector"),
    "FaultPlan": ("repro.faults.plan", "FaultPlan"),
    "INVARIANTS": ("repro.faults.invariants", "INVARIANTS"),
    "InvariantChecker": ("repro.faults.invariants", "InvariantChecker"),
    "InvariantViolation": ("repro.faults.invariants", "InvariantViolation"),
    "MONOTONIC_TIME": ("repro.faults.invariants", "MONOTONIC_TIME"),
    "NET_FAULT_KINDS": ("repro.faults.netchaos", "NET_FAULT_KINDS"),
    "NetChaosPlan": ("repro.faults.netchaos", "NetChaosPlan"),
    "STORAGE_FAULT_KINDS": ("repro.faults.storage", "STORAGE_FAULT_KINDS"),
    "SimulatedCrash": ("repro.faults.storage", "SimulatedCrash"),
    "StorageFaultInjector": ("repro.faults.storage", "StorageFaultInjector"),
    "StorageFaultPlan": ("repro.faults.storage", "StorageFaultPlan"),
    "install_fault_plan": ("repro.faults.injector", "install_fault_plan"),
    "install_storage_faults": (
        "repro.faults.storage", "install_storage_faults",
    ),
    "storage_faults": ("repro.faults.storage", "storage_faults"),
    "uninstall_storage_faults": (
        "repro.faults.storage", "uninstall_storage_faults",
    ),
}

__all__ = sorted(_LAZY)

__getattr__, __dir__ = lazy_exports(globals(), _LAZY)
