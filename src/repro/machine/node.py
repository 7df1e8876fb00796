"""One node of the CC-NUMA machine: CPU + cache controller + caches.

The node runs the hybrid wake-up of Section 3.3.2, which spans both its
CPU and its cache controller: :meth:`Node.sleep_until`. It also
provides the address-space helpers the workload layer uses: shared
addresses are page-interleaved across homes (Table 1), private
addresses are allocated on pages whose home is the node itself.
"""

from repro.coherence.controller import CacheController
from repro.machine.cpu import Cpu
from repro.sim.events import AnyOf


class Node:
    """A processor node, wired into the shared memory system."""

    def __init__(self, sim, node_id, memsys, power, telemetry=None):
        self.sim = sim
        self.node_id = node_id
        self.memsys = memsys
        self.controller = CacheController(sim, node_id, memsys)
        memsys.controllers[node_id] = self.controller
        self.cpu = Cpu(
            sim, node_id, power,
            refill_per_line_ns=memsys.config.refill_per_line_ns,
            telemetry=telemetry,
        )

    # -- the hybrid wake-up (Section 3.3.2) --------------------------------

    def sleep_until(self, state, external=None, wake_at=None, flush_lines=0):
        """Sleep in ``state`` until the ``external`` event (the flag
        monitor, a lock hand-off, a NIC interrupt) or the predicted
        release ``wake_at``, whichever fires first; at least one must be
        given. The countdown ends the exit latency before ``wake_at``,
        so the CPU is back up by then, and is cancelled unless it won.

        Returns ``(outcome, woke_by)``: the
        :class:`~repro.machine.cpu.SleepOutcome` and ``"external"``,
        ``"timer"`` or ``"spurious"`` (a fault-injected wake). A losing
        external source is the caller's to disarm.
        """
        sources = [] if external is None else [external]
        timer = handle = None
        if wake_at is not None:
            timer = self.sim.event()
            handle = self.controller.arm_wake_timer(
                max(0, wake_at - self.sim._now - state.transition_latency_ns),
                timer.succeed,
            )
            sources.append(timer)
        wake = AnyOf(self.sim, sources)
        outcome = yield from self.cpu.sleep(
            state, wake, controller=self.controller, flush_lines=flush_lines,
        )
        if wake.value is timer:
            return outcome, "timer"
        if handle is not None:
            handle.cancel()
        if wake.value is external:
            return outcome, "external"
        return outcome, "spurious"

    # -- memory operations, charged as compute time ------------------------

    def load(self, addr):
        """Timed load; the stall is charged to Compute (paper Sec. 5.2)."""
        return self.cpu.mem_op(self.memsys.load(self.node_id, addr))

    def store(self, addr, value):
        """Timed store, charged to Compute."""
        return self.cpu.mem_op(self.memsys.store(self.node_id, addr, value))

    def private_addr(self, offset):
        """An address on a page homed at this node (private data)."""
        config = self.memsys.config
        pages_per_round = config.n_nodes
        page_index = (
            self.node_id + pages_per_round * (offset // config.page_bytes)
        )
        return page_index * config.page_bytes + offset % config.page_bytes

    def __repr__(self):
        return "Node({})".format(self.node_id)
