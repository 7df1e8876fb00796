"""Workload models.

The paper evaluates on ten SPLASH-2 applications. Running the original
binaries under a cycle-level simulator is out of scope for a Python
reproduction (see DESIGN.md), so this package models each application's
*barrier-arrival process* — the only input the thrifty barrier actually
consumes: which static barriers execute in what order, the per-thread
compute time preceding each dynamic instance, its variability across
instances and threads, and the dirty cache footprint carried into each
barrier.

* :mod:`repro.workloads.imbalance` — per-thread spread models
  (rotating straggler, uniform window, ...) and per-instance swing;
* :mod:`repro.workloads.base` — phase specs, the model class, trace
  generation;
* :mod:`repro.workloads.generator` — runs a model on a
  :class:`~repro.machine.System` under a chosen barrier implementation;
* :mod:`repro.workloads.splash2` — the ten calibrated application
  models of Table 2;
* :mod:`repro.workloads.kernels` — real algorithmic kernels (radix
  sort, FFT, grid relaxation, n-body) whose measured per-thread
  operation counts drive example workloads.
"""

from repro.workloads.base import PhaseInstance, PhaseSpec, WorkloadModel
from repro.workloads.generator import RunResult, WorkloadRunner
from repro.workloads.imbalance import (
    Balanced,
    RotatingStraggler,
    UniformWindow,
)
from repro.workloads.splash2 import SPLASH2_MODELS, get_model

__all__ = [
    "Balanced",
    "PhaseInstance",
    "PhaseSpec",
    "RotatingStraggler",
    "RunResult",
    "SPLASH2_MODELS",
    "UniformWindow",
    "WorkloadModel",
    "WorkloadRunner",
    "get_model",
]
