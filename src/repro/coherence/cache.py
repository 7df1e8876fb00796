"""Set-associative cache arrays with LRU replacement.

Caches here track *coherence state and timing* only; authoritative data
values live in the functional store of :class:`repro.coherence.protocol.
MemorySystem` (timing-first simulation, see DESIGN.md).
"""

import enum
from collections import OrderedDict

from repro.errors import ConfigError, ProtocolError


class LineState(enum.Enum):
    """Stable cache-line states (MSI; DASH needs no exclusive-clean)."""

    MODIFIED = "M"
    SHARED = "S"

    # Invalid lines are simply absent from the arrays.


# A global: a class read costs ~140 ns on CPython 3.11 (DESIGN.md §8).
_MODIFIED = LineState.MODIFIED


class Cache:
    """One level of set-associative cache with per-set LRU."""

    def __init__(self, config, name="cache"):
        self.config = config
        self.name = name
        self._n_sets = config.n_sets
        self._ways = config.ways
        # set index -> OrderedDict(line_addr -> LineState), LRU first.
        # Sets are allocated on first insert: a 256-node machine carries
        # hundreds of thousands of sets, and a typical cell touches a
        # few dozen of them, so eager allocation would dominate System
        # construction time (and memory) at campaign scale.
        self._sets = [None] * config.n_sets
        # set index -> number of MODIFIED lines; lets dirty_lines() scan
        # only the sets that actually hold dirty data instead of every
        # set in the array (the pre-sleep flush calls it constantly).
        self._dirty_counts = {}

    def lookup(self, line_addr):
        """The line's state, or None when not present (invalid)."""
        cache_set = self._sets[line_addr % self._n_sets]
        return cache_set.get(line_addr) if cache_set else None

    def _dirty(self, set_index):
        """One more MODIFIED line in ``set_index``."""
        counts = self._dirty_counts
        counts[set_index] = counts.get(set_index, 0) + 1

    def _undirty(self, set_index):
        """One fewer MODIFIED line in ``set_index``."""
        counts = self._dirty_counts
        remaining = counts[set_index] - 1
        if remaining:
            counts[set_index] = remaining
        else:
            del counts[set_index]

    def insert(self, line_addr, state):
        """Install a line; returns the evicted ``(line, state)`` or None."""
        if not isinstance(state, LineState):
            raise ConfigError("state must be a LineState")
        set_index = line_addr % self._n_sets
        cache_set = self._sets[set_index]
        if cache_set is None:
            cache_set = self._sets[set_index] = OrderedDict()
        evicted = None
        old_state = cache_set.get(line_addr)
        if old_state is None:
            # Fresh install: a new key lands at the MRU end already.
            if len(cache_set) >= self._ways:
                evicted = cache_set.popitem(last=False)  # LRU victim
                if evicted[1] is _MODIFIED:
                    self._undirty(set_index)
            cache_set[line_addr] = state
            if state is _MODIFIED:
                self._dirty(set_index)
            return evicted
        cache_set[line_addr] = state
        cache_set.move_to_end(line_addr)
        if state is not old_state:
            if state is _MODIFIED:
                self._dirty(set_index)
            elif old_state is _MODIFIED:
                self._undirty(set_index)
        return evicted

    def set_state(self, line_addr, state):
        """Change the state of a resident line (e.g. M -> S downgrade)."""
        set_index = line_addr % self._n_sets
        cache_set = self._sets[set_index]
        old_state = None if cache_set is None else cache_set.get(line_addr)
        if old_state is None:
            raise ProtocolError(
                "{}: state change of absent line {:#x}".format(
                    self.name, line_addr
                )
            )
        cache_set[line_addr] = state
        if state is not old_state:
            if state is _MODIFIED:
                self._dirty(set_index)
            elif old_state is _MODIFIED:
                self._undirty(set_index)

    def invalidate(self, line_addr):
        """Drop a line; returns its former state or None if absent."""
        set_index = line_addr % self._n_sets
        cache_set = self._sets[set_index]
        state = None if cache_set is None else cache_set.pop(line_addr, None)
        if state is _MODIFIED:
            self._undirty(set_index)
        return state

    def dirty_lines(self):
        """Line addresses currently in MODIFIED state.

        Order matches a full-array scan (set index ascending, LRU order
        within a set) — the pre-sleep flush writes lines back in this
        order, so it is part of the deterministic event sequence.
        """
        counts = self._dirty_counts
        if not counts:
            return []
        dirty = []
        for set_index in sorted(counts):
            for line, state in self._sets[set_index].items():
                if state is _MODIFIED:
                    dirty.append(line)
        return dirty


class CacheHierarchy:
    """The private L1+L2 pair of one node, kept inclusive.

    Coherence state is authoritative at the L2; the L1 holds a subset.
    ``lookup`` returns the access latency and state so the protocol
    engine can charge L1 hits 2 ns and L2 hits 12 ns (Table 1).
    """

    def __init__(self, machine_config, node_id):
        self.config = machine_config
        self.node_id = node_id
        self.l1 = Cache(machine_config.l1, name="L1[{}]".format(node_id))
        self.l2 = Cache(machine_config.l2, name="L2[{}]".format(node_id))
        self._l1_hit_ns = machine_config.l1.round_trip_ns
        self._l2_hit_ns = (
            machine_config.l1.round_trip_ns + machine_config.l2.round_trip_ns
        )

    def lookup(self, line_addr):
        """Returns ``(latency_ns, state)``; state None means full miss."""
        # Inlined hit path: one modulo + dict probe per level, with the
        # LRU refresh folded in (move_to_end on a present key cannot
        # raise, so the touch() membership re-check is skipped). A set
        # never touched is None; a lookup need not allocate it.
        l1, l2 = self.l1, self.l2
        l1_set = l1._sets[line_addr % l1._n_sets]
        l2_set = l2._sets[line_addr % l2._n_sets]
        state = l1_set.get(line_addr) if l1_set else None
        if state is not None:
            l1_set.move_to_end(line_addr)
            l2_set.move_to_end(line_addr)
            return self._l1_hit_ns, state
        state = l2_set.get(line_addr) if l2_set else None
        if state is not None:
            l2_set.move_to_end(line_addr)
        return self._l2_hit_ns, state

    def state(self, line_addr):
        """The coherence state at the L2 (authoritative), or None."""
        return self.l2.lookup(line_addr)

    def fill(self, line_addr, state):
        """Install a line in both levels; returns dirty victims to write
        back as a list of line addresses."""
        dirty_victims = []
        evicted = self.l2.insert(line_addr, state)
        if evicted is not None:
            victim, victim_state = evicted
            # Inclusion: the L1 copy (if any) goes too.
            self.l1.invalidate(victim)
            if victim_state is _MODIFIED:
                dirty_victims.append(victim)
        evicted = self.l1.insert(line_addr, state)
        if evicted is not None:
            victim, victim_state = evicted
            # L1 victims remain in the (inclusive) L2; keep the L2 state
            # authoritative, so nothing to write back here.
            if self.l2.lookup(victim) is None:
                raise ProtocolError(
                    "inclusion violated: L1 victim {:#x} absent from L2".format(
                        victim
                    )
                )
        return dirty_victims

    def set_state(self, line_addr, state):
        """Downgrade/upgrade a resident line in both levels."""
        self.l2.set_state(line_addr, state)
        if self.l1.lookup(line_addr) is not None:
            self.l1.set_state(line_addr, state)

    def invalidate(self, line_addr):
        """Drop a line from both levels; returns the L2 state it had."""
        self.l1.invalidate(line_addr)
        return self.l2.invalidate(line_addr)

    def dirty_lines(self):
        """Dirty (MODIFIED) lines, authoritative at the L2."""
        return self.l2.dirty_lines()
