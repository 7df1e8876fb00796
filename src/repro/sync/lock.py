"""A queued test-and-set spinlock over the coherence protocol.

This is the ``lock(c)``/``unlock(c)`` pair protecting the barrier count
in Figure 2. Acquisition performs a real atomic read-modify-write on the
lock line (exclusive ownership migrates between contenders through the
directory); a loser parks on a wait queue and retries on hand-off, which
models queue-based backoff rather than wasting simulated events on
per-iteration spinning.
"""

from repro.energy.accounting import Category
from repro.errors import SimulationError


class SpinLock:
    """One lock, backed by one cache line of shared memory."""

    def __init__(self, system, name="lock"):
        self.system = system
        self.sim = system.sim
        self.memsys = system.memsys
        self.name = name
        self.addr = system.alloc_shared()
        self._waiters = []
        self._holder = None
        self._acquired_at = None
        #: How long the lock was last held, in ns (None before the first
        #: release).
        self.last_hold_ns = None
        self.stats_acquisitions = 0
        self.stats_contended = 0

    def acquire(self, node, category=Category.SPIN):
        """Acquire from ``node``; simulation subroutine (generator)."""
        cpu = node.cpu
        while True:
            old = yield from cpu.mem_op_as(
                category,
                self.memsys.rmw(node.node_id, self.addr, lambda _v: 1),
            )
            if old == 0:
                self._holder = node.node_id
                self._acquired_at = self.sim.now
                self.stats_acquisitions += 1
                return
            self.stats_contended += 1
            ticket = self.sim.event()
            self._waiters.append(ticket)
            yield from self._await_handoff(node, ticket)
            # The hand-off gives us priority; retry the RMW.

    def _await_handoff(self, node, ticket):
        """Wait in line until ``ticket`` (the hand-off) fires: spinning
        here, sleeping in :class:`~repro.sync.thrifty_lock.ThriftyLock`."""
        return node.cpu.spin_until(ticket)

    def release(self, node, category=Category.SPIN):
        """Release from ``node``; hands off to the oldest waiter."""
        if self._holder != node.node_id:
            raise SimulationError(
                "{} released by {} but held by {}".format(
                    self.name, node.node_id, self._holder
                )
            )
        self.last_hold_ns = self.sim.now - self._acquired_at
        self._holder = None
        yield from node.cpu.mem_op_as(
            category,
            self.memsys.store(node.node_id, self.addr, 0),
        )
        if self._waiters:
            self._waiters.pop(0).succeed()

    @property
    def held(self):
        return self._holder is not None
