"""The coherence transaction engine.

:class:`MemorySystem` executes loads, stores, atomic read-modify-writes,
and write-backs as simulation processes. Timing follows Table 1; protocol
state (cache line states, directory entries) is mutated at the simulated
instants the corresponding messages arrive. Data values are *functional*:
a single authoritative store is updated when a write transaction commits,
which is exact for the lock-protected and flag-based sharing patterns the
barrier code uses.

The home directory entry's lock is held for the whole transaction
(request arrival through requester fill), mirroring DASH's busy/pending
serialization; a transaction looks its entry up once. Invalidations fan out in parallel and their acks are
collected before the exclusive grant — this is the very invalidation the
thrifty barrier uses as its external wake-up signal.
"""

from repro.coherence.cache import CacheHierarchy, LineState
from repro.coherence.directory import Directory, DirState
from repro.interconnect.network import Network
from repro.interconnect.topology import Hypercube

#: Wire sizes, the only property of a coherence message timing reads: a
#: control message (request, invalidation, ack) is one 16-byte flit, and
#: a data message carries a 64-byte line behind a one-flit header.
CONTROL_BYTES = 16
DATA_BYTES = 64 + 16

# Enum members as globals: on CPython 3.11 a class read such as
# ``DirState.EXCLUSIVE`` costs ~140 ns, a global ~10 (DESIGN.md §8).
_MODIFIED = LineState.MODIFIED
_SHARED_COPY = LineState.SHARED
_DIR_EXCLUSIVE = DirState.EXCLUSIVE
_DIR_SHARED = DirState.SHARED
_DIR_UNCACHED = DirState.UNCACHED

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
        # monitor, kept by the controllers in fast mode only, where a
        # store notifies just the watching nodes instead of them all.
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
        # GetS: obtain a shared copy of the line.
        home = self.home_of_line(line)
        yield self.network.delivery_ns(node, home, CONTROL_BYTES)
        entry = self.directories[home].entry(line)
        lock = entry.lock
        if (queued := lock.request()) is not None:
            yield queued
        try:
            if entry.state is _DIR_EXCLUSIVE and entry.owner != node:
                yield from self._fetch_from_owner(
                    home, line, entry, invalidate=False
                )
            elif entry.state is _DIR_EXCLUSIVE:
                # Our own write-back for this line is still in flight
                # (eviction raced the re-read); treat memory as current.
                entry.state = _DIR_UNCACHED
                entry.owner = None
            yield self.memory_access_ns
            entry.grant_shared(node)
            yield self.network.delivery_ns(home, node, DATA_BYTES)
            self._fill(node, line, _SHARED_COPY)
        finally:
            lock.release()
        return self._values.get(addr, 0)

    def store(self, node, addr, value):
        """Write ``value`` to ``addr`` from ``node``."""
        return self._write(node, addr, value, None)

    def rmw(self, node, addr, update):
        """Atomic read-modify-write; returns the *old* value.

        ``update`` maps the old value to the new one. Used for the
        barrier count and for lock acquisition (test&set style).
        """
        return self._write(node, addr, None, update)

    def _write(self, node, addr, value, update):
        """The transaction of :meth:`store` (``update`` None: write
        ``value``) and of :meth:`rmw`. One generator for both, with the
        GetX inline, so a write's resumes cross one frame, not two."""
        if update is None:
            self.stats.stores += 1
        else:
            self.stats.rmws += 1
        if not self._detailed:
            yield FAST_MODE_ACCESS_NS
            old = self._values.get(addr, 0)
            self._values[addr] = value if update is None else update(old)
            self._fast_mode_notify(node, addr // self._line_bytes)
            return None if update is None else old
        line = addr // self._line_bytes
        latency, state = self.hierarchies[node].lookup(line)
        yield latency
        if state is not _MODIFIED:
            # GetX: obtain an exclusive (M) copy of the line.
            home = self.home_of_line(line)
            yield self.network.delivery_ns(node, home, CONTROL_BYTES)
            entry = self.directories[home].entry(line)
            lock = entry.lock
            if (queued := lock.request()) is not None:
                yield queued
            try:
                if entry.state is _DIR_EXCLUSIVE and entry.owner != node:
                    yield from self._fetch_from_owner(
                        home, line, entry, invalidate=True
                    )
                elif entry.state is _DIR_SHARED:
                    victims = sorted(entry.sharers - {node})
                    if victims:
                        yield self._invalidate_sharers(home, line, victims)
                        entry.drop_sharers(victims)
                yield self.memory_access_ns
                entry.sharers &= {node}
                entry.grant_exclusive(node)
                yield self.network.delivery_ns(home, node, DATA_BYTES)
                self._fill(node, line, _MODIFIED)
            finally:
                lock.release()
        if update is None:
            self._values[addr] = value
            return None
        old = self._values.get(addr, 0)
        self._values[addr] = update(old)
        return old

    def writeback(self, node, line):
        """Write a dirty line back to its home (PutX); drops ownership."""
        self.stats.writebacks += 1
        home = self.home_of_line(line)
        yield self.network.delivery_ns(node, home, DATA_BYTES)
        entry = self.directories[home].entry(line)
        lock = entry.lock
        if (queued := lock.request()) is not None:
            yield queued
        try:
            entry.release_exclusive(node)
            yield self.memory_access_ns
        finally:
            lock.release()

    # -- protocol internals ------------------------------------------------

    def _invalidate_sharers(self, home, line, victims):
        """Fan INVs out in parallel; returns the event of the last ack.

        Each victim's round trip is three plain queue entries (INV send,
        arrival, ack) at the times and in the order a process per victim
        queued its resumes; see DESIGN.md §8.
        """
        sim = self.sim
        insert = sim._insert
        delivery_ns = self.network.delivery_ns
        acked = sim.event()
        pending = len(victims)

        def ack(_value, _exception):
            nonlocal pending
            pending -= 1
            if not pending:
                acked.succeed()

        def leg(victim):
            def arrive(_value, _exception):
                self._deliver_invalidation(victim, line)
                delay = delivery_ns(victim, home, CONTROL_BYTES)
                insert(sim._now + delay, ack)

            def send(_value, _exception):
                delay = delivery_ns(home, victim, CONTROL_BYTES)
                insert(sim._now + delay, arrive)

            return send

        for victim in victims:
            insert(sim._now, leg(victim))
        return acked

    def _fetch_from_owner(self, home, line, entry, invalidate):
        """Pull (and optionally invalidate) the dirty copy at the owner
        ``entry`` records."""
        self.stats.owner_fetches += 1
        owner = entry.owner
        yield self.network.delivery_ns(home, owner, CONTROL_BYTES)
        hierarchy = self.hierarchies[owner]
        if invalidate:
            self._deliver_invalidation(owner, line)
        elif hierarchy.state(line) is _MODIFIED:
            hierarchy.set_state(line, _SHARED_COPY)
        yield self.network.delivery_ns(owner, home, DATA_BYTES)
        if invalidate:
            entry.state = _DIR_UNCACHED
            entry.owner = None
            entry.sharers = set()
        else:
            entry.demote_owner()

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
