"""The coherence transaction engine.

:class:`MemorySystem` executes loads, stores, atomic read-modify-writes,
and write-backs as simulation processes. Timing follows Table 1; protocol
state (cache line states, directory entries) is mutated at the simulated
instants the corresponding messages arrive. Data values are *functional*:
a single authoritative store is updated when a write transaction commits,
which is exact for the lock-protected and flag-based sharing patterns the
barrier code uses.

The home directory's per-line lock is held for the whole transaction
(request arrival through requester fill), mirroring DASH's busy/pending
serialization. Invalidations fan out in parallel and their acks are
collected before the exclusive grant — this is the very invalidation the
thrifty barrier uses as its external wake-up signal.
"""

from repro.coherence.cache import CacheHierarchy, LineState
from repro.coherence.directory import Directory, DirState
from repro.coherence.messages import CONTROL_BYTES, DATA_BYTES
from repro.interconnect.network import Network
from repro.interconnect.topology import Hypercube
from repro.sim.events import AllOf

#: Latency of a load/store when detailed_memory is off (fast mode).
FAST_MODE_ACCESS_NS = 4
#: Delay from a fast-mode store to monitor notification at remote nodes.
FAST_MODE_NOTIFY_NS = 120


class MemoryStats:
    """Counters for reporting and tests."""

    def __init__(self):
        self.loads = 0
        self.stores = 0
        self.rmws = 0
        self.l1_hits = 0
        self.l2_hits = 0
        self.misses = 0
        self.invalidations = 0
        self.writebacks = 0
        self.owner_fetches = 0


class MemorySystem:
    """All caches, directories, and the functional store of the machine."""

    def __init__(self, sim, config, network=None):
        self.sim = sim
        self.config = config
        self.topology = Hypercube(config.n_nodes)
        self.network = network or Network(sim, self.topology, config.network)
        self.hierarchies = [
            CacheHierarchy(config, node) for node in range(config.n_nodes)
        ]
        self.directories = [
            Directory(sim, node) for node in range(config.n_nodes)
        ]
        self.controllers = [None] * config.n_nodes  # set by machine layer
        # line_addr -> set of node ids with at least one armed flag
        # monitor; maintained by the controllers so fast-mode stores
        # notify only the watching nodes instead of scanning them all.
        self._monitor_nodes = {}
        self._values = {}
        self.stats = MemoryStats()
        # Config scalars cached as attributes: the transaction
        # generators touch these on every access.
        self._detailed = config.detailed_memory
        self._line_bytes = config.line_bytes
        self._page_bytes = config.page_bytes
        self._n_nodes = config.n_nodes
        # 64-byte line over the 16-byte, 250 MHz bus = 4 cycles of 4 ns.
        bus_cycle_ns = int(round(1_000 / config.bus_freq_mhz))
        transfer_ns = (
            config.line_bytes // config.bus_width_bytes
        ) * bus_cycle_ns
        self.memory_access_ns = config.memory_row_miss_ns + transfer_ns

    # -- address helpers --------------------------------------------------

    def line_of(self, addr):
        return addr // self._line_bytes

    def home_of(self, addr):
        """Round-robin page interleaving of shared data (Table 1)."""
        return (addr // self._page_bytes) % self._n_nodes

    def home_of_line(self, line_addr):
        return (
            line_addr * self._line_bytes // self._page_bytes
        ) % self._n_nodes

    def peek(self, addr):
        """Functional read without timing (for assertions and oracles)."""
        return self._values.get(addr, 0)

    # -- public transaction API (generators) ------------------------------

    def load(self, node, addr):
        """Read ``addr`` from ``node``; returns the value."""
        stats = self.stats
        stats.loads += 1
        if not self._detailed:
            yield FAST_MODE_ACCESS_NS
            return self._values.get(addr, 0)
        line = addr // self._line_bytes
        hierarchy = self.hierarchies[node]
        latency, state = hierarchy.lookup(line)
        yield latency
        if state is not None:
            # lookup() reports the L1 round trip iff the L1 hit.
            if latency == hierarchy._l1_hit_ns:
                stats.l1_hits += 1
            else:
                stats.l2_hits += 1
            return self._values.get(addr, 0)
        stats.misses += 1
        yield from self._shared_miss(node, line)
        return self._values.get(addr, 0)

    def store(self, node, addr, value):
        """Write ``value`` to ``addr`` from ``node``."""
        self.stats.stores += 1
        if not self._detailed:
            yield FAST_MODE_ACCESS_NS
            self._values[addr] = value
            self._fast_mode_notify(node, addr // self._line_bytes)
            return
        line = addr // self._line_bytes
        hierarchy = self.hierarchies[node]
        latency, state = hierarchy.lookup(line)
        yield latency
        if state is LineState.MODIFIED:
            self._values[addr] = value
            return
        yield from self._exclusive_miss(node, line)
        self._values[addr] = value

    def rmw(self, node, addr, update):
        """Atomic read-modify-write; returns the *old* value.

        ``update`` maps the old value to the new one. Used for the
        barrier count and for lock acquisition (test&set style).
        """
        self.stats.rmws += 1
        if not self._detailed:
            yield FAST_MODE_ACCESS_NS
            old = self._values.get(addr, 0)
            self._values[addr] = update(old)
            self._fast_mode_notify(node, addr // self._line_bytes)
            return old
        line = addr // self._line_bytes
        hierarchy = self.hierarchies[node]
        latency, state = hierarchy.lookup(line)
        yield latency
        if state is not LineState.MODIFIED:
            yield from self._exclusive_miss(node, line)
        old = self._values.get(addr, 0)
        self._values[addr] = update(old)
        return old

    def writeback(self, node, line):
        """Write a dirty line back to its home (PutX); drops ownership."""
        self.stats.writebacks += 1
        home = self.home_of_line(line)
        yield self.network.delivery_ns(node, home, DATA_BYTES)
        directory = self.directories[home]
        yield directory.lock(line).acquire()
        try:
            directory.release_exclusive(line, node)
            yield self.memory_access_ns
        finally:
            directory.lock(line).release()

    # -- protocol internals ------------------------------------------------

    def _shared_miss(self, node, line):
        """GetS: obtain a shared copy of ``line`` at ``node``."""
        home = self.home_of_line(line)
        yield self.network.delivery_ns(node, home, CONTROL_BYTES)
        directory = self.directories[home]
        yield directory.lock(line).acquire()
        try:
            entry = directory.entry(line)
            if entry.state is DirState.EXCLUSIVE and entry.owner != node:
                yield from self._fetch_from_owner(
                    home, line, entry.owner, invalidate=False
                )
            elif entry.state is DirState.EXCLUSIVE:
                # Our own write-back for this line is still in flight
                # (eviction raced the re-read); treat memory as current.
                entry.state = DirState.UNCACHED
                entry.owner = None
            yield self.memory_access_ns
            directory.grant_shared(line, node)
            yield self.network.delivery_ns(home, node, DATA_BYTES)
            self._fill(node, line, LineState.SHARED)
        finally:
            directory.lock(line).release()

    def _exclusive_miss(self, node, line):
        """GetX: obtain an exclusive (M) copy of ``line`` at ``node``."""
        home = self.home_of_line(line)
        yield self.network.delivery_ns(node, home, CONTROL_BYTES)
        directory = self.directories[home]
        yield directory.lock(line).acquire()
        try:
            entry = directory.entry(line)
            if entry.state is DirState.EXCLUSIVE and entry.owner != node:
                yield from self._fetch_from_owner(
                    home, line, entry.owner, invalidate=True
                )
            elif entry.state is DirState.SHARED:
                victims = sorted(entry.sharers - {node})
                if victims:
                    yield from self._invalidate_sharers(home, line, victims)
            yield self.memory_access_ns
            entry.sharers &= {node}
            directory.grant_exclusive(line, node)
            yield self.network.delivery_ns(home, node, DATA_BYTES)
            self._fill(node, line, LineState.MODIFIED)
        finally:
            directory.lock(line).release()

    def _invalidate_sharers(self, home, line, victims):
        """Fan INVs out in parallel; wait for every ack at the home."""

        def one_round_trip(victim):
            yield self.network.delivery_ns(home, victim, CONTROL_BYTES)
            self._deliver_invalidation(victim, line)
            yield self.network.delivery_ns(victim, home, CONTROL_BYTES)

        acks = [
            self.sim.spawn(
                one_round_trip(victim), name="inv->{}".format(victim)
            )
            for victim in victims
        ]
        yield AllOf(self.sim, acks)
        directory = self.directories[home]
        for victim in victims:
            directory.drop_sharer(line, victim)

    def _fetch_from_owner(self, home, line, owner, invalidate):
        """Pull (and optionally invalidate) the dirty copy at ``owner``."""
        self.stats.owner_fetches += 1
        yield self.network.delivery_ns(home, owner, CONTROL_BYTES)
        hierarchy = self.hierarchies[owner]
        if invalidate:
            self._deliver_invalidation(owner, line)
        elif hierarchy.state(line) is LineState.MODIFIED:
            hierarchy.set_state(line, LineState.SHARED)
        yield self.network.delivery_ns(owner, home, DATA_BYTES)
        directory = self.directories[home]
        if invalidate:
            entry = directory.entry(line)
            entry.state = DirState.UNCACHED
            entry.owner = None
            entry.sharers = set()
        else:
            directory.demote_owner(line)

    def _deliver_invalidation(self, node, line):
        """Invalidate ``line`` at ``node`` and poke its controller.

        The controller hook is how the thrifty barrier's *external
        wake-up* fires: the armed flag monitor sees the INV of the
        barrier-flag line.
        """
        self.stats.invalidations += 1
        self.hierarchies[node].invalidate(line)
        controller = self.controllers[node]
        if controller is not None:
            controller.notify_invalidation(line)

    def _fill(self, node, line, state):
        """Install a line; spawn write-backs for dirty victims."""
        for victim in self.hierarchies[node].fill(line, state):
            self.sim.spawn(
                self.writeback(node, victim),
                name="wb[{}]{:#x}".format(node, victim),
            )

    def watch_line(self, line, node):
        """A controller armed its first monitor for ``line``."""
        self._monitor_nodes.setdefault(line, set()).add(node)

    def unwatch_line(self, line, node):
        """A controller's last monitor for ``line`` went away."""
        nodes = self._monitor_nodes.get(line)
        if nodes is not None:
            nodes.discard(node)
            if not nodes:
                del self._monitor_nodes[line]

    def _fast_mode_notify(self, writer, line):
        """Fast mode: emulate the INV delivery that wakes flag monitors."""
        nodes = self._monitor_nodes.get(line)
        if not nodes:
            return
        # Ascending node order matches the legacy all-controller scan,
        # so notify callbacks land in the queue in the same order.
        for node in sorted(nodes):
            if node == writer:
                continue
            self.sim.schedule(
                FAST_MODE_NOTIFY_NS,
                self.controllers[node].notify_invalidation,
                line,
            )
