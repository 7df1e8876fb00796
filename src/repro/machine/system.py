"""Assembly of the full machine and the thread-program runner."""

from repro.coherence.protocol import MemorySystem
from repro.config import EnergyConfig, MachineConfig
from repro.energy.accounting import EnergyAccount
from repro.errors import ConfigError, SimulationError
from repro.machine.node import Node
from repro.machine.power import CpuPower
from repro.sim import Simulator
from repro.telemetry.tracer import NULL_TRACER


#: Shared-address region used by synchronization structures; kept well
#: away from workload data.
SHARED_BASE = 1 << 40


class System:
    """The 64-node CC-NUMA multiprocessor of Table 1 (size configurable).

    Example
    -------
    >>> system = System(MachineConfig(n_nodes=4))
    >>> def program(node):
    ...     yield from node.cpu.compute(1_000)
    >>> system.run_threads(program)
    >>> system.execution_time_ns
    1000
    """

    def __init__(
        self, config=None, energy_config=None, power=None, telemetry=None,
    ):
        self.config = config or MachineConfig()
        self.energy_config = energy_config or EnergyConfig()
        self.sim = Simulator()
        self.power = power or CpuPower.calibrate(
            self.config, self.energy_config
        )
        self.telemetry = telemetry if telemetry is not None else NULL_TRACER
        self.memsys = MemorySystem(self.sim, self.config)
        self.nodes = [
            Node(
                self.sim, node_id, self.memsys, self.power,
                telemetry=self.telemetry,
            )
            for node_id in range(self.config.n_nodes)
        ]
        self._shared_cursor = SHARED_BASE
        self._threads = []

    @property
    def n_nodes(self):
        return self.config.n_nodes

    def alloc_shared(self, count=1, stride=None):
        """Allocate ``count`` shared addresses, one cache line apart.

        Synchronization variables get a full line each to avoid false
        sharing, exactly as tuned barrier libraries lay them out.
        """
        stride = stride or self.config.line_bytes
        addrs = [
            self._shared_cursor + index * stride for index in range(count)
        ]
        self._shared_cursor += count * stride
        if count == 1:
            return addrs[0]
        return addrs

    def spawn_thread(self, node_id, generator, name=None):
        """Start a thread program (a generator) pinned to a node."""
        process = self.sim.spawn(
            generator, name=name or "thread[{}]".format(node_id)
        )
        self._threads.append(process)
        return process

    def run_threads(self, program, n_threads=None):
        """Run ``program(node)`` on the first ``n_threads`` nodes to
        completion (one thread per CPU, the paper's dedicated mode)."""
        if n_threads is None:
            n_threads = self.n_nodes
        if not 1 <= n_threads <= self.n_nodes:
            raise ConfigError("need 1 to {} threads (one per node), got {}"
                              .format(self.n_nodes, n_threads))
        for node in self.nodes[:n_threads]:
            self.spawn_thread(node.node_id, program(node))
        self.run()

    def run(self, until=None):
        """Drive the simulation; raises if any thread died on an error."""
        self.sim.run(until=until)
        for process in self._threads:
            if process.triggered and not process.ok:
                raise SimulationError(
                    "thread {} failed: {!r}".format(
                        process.name, process.exception
                    )
                ) from process.exception

    @property
    def execution_time_ns(self):
        """Wall-clock of the parallel section so far."""
        return self.sim.now

    def total_account(self):
        """System-wide energy account (sum over CPUs)."""
        total = EnergyAccount()
        for node in self.nodes:
            total.merge(node.cpu.account)
        return total

    def cpu_accounts(self):
        """Per-CPU accounts, indexed by node."""
        return [node.cpu.account for node in self.nodes]
