"""Per-home-node directory state and per-line serialization.

Each memory line has a home node (round-robin page interleaving,
Table 1). The home's directory records whether the line is uncached,
shared by a set of nodes, or exclusively owned, and serializes
conflicting transactions on the same line with a FIFO lock — the role
the DASH home plays with its pending/busy states.
"""

import enum
from collections import deque

from repro.errors import ProtocolError


class DirState(enum.Enum):
    UNCACHED = "uncached"
    SHARED = "shared"
    EXCLUSIVE = "exclusive"


class DirectoryEntry:
    """Directory knowledge about one line."""

    __slots__ = ("state", "sharers", "owner")

    def __init__(self):
        self.state = DirState.UNCACHED
        self.sharers = set()
        self.owner = None

    def __repr__(self):
        if self.state is DirState.EXCLUSIVE:
            detail = "owner={}".format(self.owner)
        else:
            detail = "sharers={}".format(sorted(self.sharers))
        return "DirectoryEntry({}, {})".format(self.state.value, detail)


class LineLock:
    """FIFO mutual exclusion for transactions on one line."""

    def __init__(self, sim):
        self.sim = sim
        self._locked = False
        self._waiters = deque()
        # Reusable already-triggered event for the uncontended grant:
        # yielding a triggered event continues the process immediately,
        # so handing out the same one every time is indistinguishable
        # from allocating a fresh pre-succeeded event per acquire.
        self._granted = sim.event().succeed()

    def acquire(self):
        """An event that succeeds once the lock is held by the caller."""
        if not self._locked:
            self._locked = True
            return self._granted
        event = self.sim.event()
        self._waiters.append(event)
        return event

    def release(self):
        if not self._locked:
            raise ProtocolError("release of unheld line lock")
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._locked = False


class Directory:
    """The directory slice held by one home node."""

    def __init__(self, sim, node_id):
        self.sim = sim
        self.node_id = node_id
        self._entries = {}
        self._locks = {}

    def entry(self, line_addr):
        try:
            return self._entries[line_addr]
        except KeyError:
            entry = DirectoryEntry()
            self._entries[line_addr] = entry
            return entry

    def lock(self, line_addr):
        try:
            return self._locks[line_addr]
        except KeyError:
            lock = LineLock(self.sim)
            self._locks[line_addr] = lock
            return lock

    # -- state transitions used by the protocol engine -------------------

    def grant_shared(self, line_addr, node):
        entry = self.entry(line_addr)
        if entry.state is DirState.EXCLUSIVE:
            raise ProtocolError(
                "shared grant while line {:#x} exclusive at {}".format(
                    line_addr, entry.owner
                )
            )
        entry.state = DirState.SHARED
        entry.sharers.add(node)
        entry.owner = None

    def grant_exclusive(self, line_addr, node):
        entry = self.entry(line_addr)
        if entry.sharers and entry.sharers != {node}:
            raise ProtocolError(
                "exclusive grant of {:#x} with live sharers {}".format(
                    line_addr, sorted(entry.sharers)
                )
            )
        entry.state = DirState.EXCLUSIVE
        entry.sharers = set()
        entry.owner = node

    def demote_owner(self, line_addr):
        """EXCLUSIVE -> SHARED {old owner} after a Fetch."""
        entry = self.entry(line_addr)
        if entry.state is not DirState.EXCLUSIVE:
            raise ProtocolError("demote of non-exclusive line")
        owner = entry.owner
        entry.state = DirState.SHARED
        entry.sharers = {owner}
        entry.owner = None
        return owner

    def drop_sharer(self, line_addr, node):
        entry = self.entry(line_addr)
        entry.sharers.discard(node)
        if not entry.sharers and entry.state is DirState.SHARED:
            entry.state = DirState.UNCACHED

    def release_exclusive(self, line_addr, node):
        """Owner wrote the line back (PutX)."""
        entry = self.entry(line_addr)
        if entry.state is not DirState.EXCLUSIVE or entry.owner != node:
            # A stale write-back that raced a later grant: ignore, the
            # line moved on. DASH handles this with a retry NAK; dropping
            # is equivalent here because data is functional.
            return False
        entry.state = DirState.UNCACHED
        entry.owner = None
        return True
