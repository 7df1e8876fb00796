"""Workload model core: phase specifications and trace generation.

A :class:`WorkloadModel` is a compact description of an application's
barrier structure: optional one-shot *setup* phases (the non-repeating
barriers of FFT and Cholesky), a *main loop* of phases executed for a
number of iterations (the SPMD time-step loop), and per-phase timing
parameters. :meth:`WorkloadModel.generate` expands it into a concrete,
seeded sequence of :class:`PhaseInstance` objects — one per dynamic
barrier instance, carrying per-thread compute durations.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.errors import WorkloadError
from repro.workloads.imbalance import Balanced, ImbalanceModel, Swing


@dataclass(frozen=True)
class PhaseSpec:
    """One static compute phase, ended by one static barrier.

    Attributes
    ----------
    pc:
        Identity of the barrier ending the phase (the predictor index).
    mean_ns:
        Mean per-thread compute time of the phase.
    imbalance:
        Per-thread spread model.
    swing:
        Optional per-instance global multiplier (Ocean-style interval
        variability).
    dirty_lines:
        Dirty cache-line footprint each thread carries into the barrier;
        flushed when a non-snooping sleep state is entered.
    """

    pc: str
    mean_ns: int
    imbalance: ImbalanceModel = field(default_factory=Balanced)
    swing: Optional[Swing] = None
    dirty_lines: int = 0

    def __post_init__(self):
        if self.mean_ns <= 0:
            raise WorkloadError(
                "phase {} has non-positive mean".format(self.pc)
            )
        if self.dirty_lines < 0:
            raise WorkloadError("dirty_lines must be non-negative")


@dataclass
class PhaseInstance:
    """One dynamic phase: concrete durations for every thread."""

    pc: str
    durations: np.ndarray
    dirty_lines: int

    @property
    def spread_ns(self):
        return int(self.durations.max() - self.durations.min())


class WorkloadModel:
    """An application as a barrier-arrival process.

    Parameters
    ----------
    name:
        Application name (e.g. ``"fmm"``).
    loop_phases:
        Phases executed each main-loop iteration.
    iterations:
        Number of main-loop iterations.
    setup_phases:
        Phases executed once before the loop (non-repeating barriers).
    default_threads:
        The thread count the calibration targets (64 in the paper).
    description:
        One line about what the real application does.
    """

    def __init__(
        self,
        name,
        loop_phases=(),
        iterations=0,
        setup_phases=(),
        default_threads=64,
        description="",
    ):
        if not loop_phases and not setup_phases:
            raise WorkloadError("a workload needs at least one phase")
        if loop_phases and iterations < 1:
            raise WorkloadError("loop phases require iterations >= 1")
        self.name = name
        self.loop_phases = tuple(loop_phases)
        self.iterations = iterations
        self.setup_phases = tuple(setup_phases)
        self.default_threads = default_threads
        self.description = description

    @property
    def static_barriers(self):
        """Distinct barrier PCs, in first-execution order."""
        seen = []
        for spec in list(self.setup_phases) + list(self.loop_phases):
            if spec.pc not in seen:
                seen.append(spec.pc)
        return seen

    @property
    def dynamic_instances(self):
        """Total dynamic barrier instances one run executes."""
        return len(self.setup_phases) + self.iterations * len(
            self.loop_phases
        )

    def spec_sequence(self):
        """The dynamic sequence of phase specs."""
        for spec in self.setup_phases:
            yield spec
        for _ in range(self.iterations):
            for spec in self.loop_phases:
                yield spec

    def generate(self, n_threads, seed=0):
        """Expand into concrete :class:`PhaseInstance` objects.

        Deterministic for a given ``(n_threads, seed)``.
        """
        if n_threads < 1:
            raise WorkloadError("need at least one thread")
        rng = np.random.default_rng(seed)
        instances = []
        for spec in self.spec_sequence():
            mean = spec.mean_ns
            if spec.swing is not None:
                mean = max(1, int(spec.swing.sample(rng) * mean))
            durations = spec.imbalance.sample(rng, n_threads, mean)
            instances.append(
                PhaseInstance(
                    pc=spec.pc,
                    durations=durations,
                    dirty_lines=spec.dirty_lines,
                )
            )
        return instances

    def __repr__(self):
        return "WorkloadModel({!r}, {} static barriers, {} instances)".format(
            self.name, len(self.static_barriers), self.dynamic_instances
        )

