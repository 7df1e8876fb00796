"""Run a workload model on a simulated machine.

The :class:`WorkloadRunner` wires together a model, a
:class:`~repro.machine.System`, and a *barrier factory* — the hook the
experiment harness uses to select the synchronization implementation
(conventional, thrifty, thrifty-halt, spin-then-sleep) while everything
else stays identical.
"""

from dataclasses import dataclass
from typing import List, Optional

from repro.energy.accounting import Category, EnergyAccount
from repro.errors import ConfigError, SimulationError, WorkloadError
from repro.machine import System
from repro.predict import LastValuePredictor, TimingDomain
from repro.sync import BarrierTrace, ConventionalBarrier

# A global: a class read costs ~140 ns on CPython 3.11 (DESIGN.md §8).
_COMPUTE = Category.COMPUTE


def conventional_factory(system, domain, n_threads, pc, trace):
    """Default barrier factory: the Baseline configuration."""
    return ConventionalBarrier(system, domain, n_threads, pc, trace=trace)


@dataclass
class RunResult:
    """Everything a single simulation produced."""

    app: str
    n_threads: int
    execution_time_ns: int
    accounts: List[EnergyAccount]
    total: EnergyAccount
    trace: BarrierTrace
    power: object
    barriers: dict
    predictor: Optional[object] = None

    @property
    def energy_joules(self):
        return self.total.energy_joules()

    def energy_breakdown(self):
        return self.total.energy_breakdown()

    def barrier_imbalance(self):
        """The Table 2 metric: total stall over P x execution time."""
        if self.execution_time_ns == 0:
            return 0.0
        return self.trace.total_stall_ns() / (
            self.n_threads * self.execution_time_ns
        )


class WorkloadRunner:
    """Executes one workload model under one barrier implementation."""

    def __init__(
        self,
        model,
        system=None,
        n_threads=None,
        seed=0,
        barrier_factory=conventional_factory,
        predictor=None,
        perturb=None,
        telemetry=None,
    ):
        self.model = model
        if n_threads is None:
            n_threads = model.default_threads
        if n_threads < 1:
            raise ConfigError(
                "a workload needs at least 1 thread, got {}".format(n_threads)
            )
        self.n_threads = n_threads
        self.system = system or System(telemetry=telemetry)
        if self.n_threads > self.system.n_nodes:
            raise WorkloadError(
                "{} threads > {} nodes".format(
                    self.n_threads, self.system.n_nodes
                )
            )
        self.seed = seed
        self.barrier_factory = barrier_factory
        #: Optional hook mapping the generated instance list to a
        #: perturbed one (e.g. OS preemption injection, Section 3.4.2).
        self.perturb = perturb
        self.predictor = predictor or LastValuePredictor()
        self.domain = TimingDomain(
            self.system, self.n_threads, predictor=self.predictor
        )
        self.trace = BarrierTrace()
        self.barriers = {
            pc: barrier_factory(
                self.system, self.domain, self.n_threads, pc, self.trace
            )
            for pc in model.static_barriers
        }

    def run(self):
        """Simulate the whole application; returns a :class:`RunResult`."""
        instances = self.model.generate(self.n_threads, seed=self.seed)
        if self.perturb is not None:
            instances = self.perturb(instances)
        # Batch the schedule once, outside the event loop: resolve each
        # instance's barrier and convert the numpy duration vector to a
        # plain int list, so the per-thread generators do no numpy
        # scalar boxing or dict lookups between yields.
        plan = []
        for instance in instances:
            durations = [int(d) for d in instance.durations]
            for duration in durations:
                if duration < 0:
                    raise SimulationError(
                        "compute duration must be non-negative"
                    )
            plan.append((
                self.barriers[instance.pc].wait,
                instance.dirty_lines,
                durations,
            ))

        def program(node):
            thread_id = node.node_id
            cpu = node.cpu
            account_add = cpu.account.add
            compute_watts = cpu.power.compute_watts
            for barrier_wait, dirty_lines, durations in plan:
                # Inlined Cpu.compute(): pay any refill debt, run the
                # phase, charge it — without a generator frame per phase.
                duration = durations[thread_id] + cpu._refill_debt_ns
                cpu._refill_debt_ns = 0
                yield duration
                account_add(_COMPUTE, duration, power_watts=compute_watts)
                yield from barrier_wait(node, dirty_lines=dirty_lines)

        self.system.run_threads(program, n_threads=self.n_threads)
        accounts = self.system.cpu_accounts()[: self.n_threads]
        total = EnergyAccount()
        for account in accounts:
            total.merge(account)
        return RunResult(
            app=self.model.name,
            n_threads=self.n_threads,
            execution_time_ns=self.system.execution_time_ns,
            accounts=accounts,
            total=total,
            trace=self.trace,
            power=self.system.power,
            barriers=self.barriers,
            predictor=self.predictor,
        )
