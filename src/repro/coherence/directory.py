"""Per-home-node directory state and per-line serialization.

Each memory line has a home node (round-robin page interleaving,
Table 1). The home's directory records whether the line is uncached,
shared by a set of nodes, or exclusively owned, and serializes
conflicting transactions on the same line with a FIFO lock each entry
owns — the role the DASH home plays with its pending/busy states.
"""

import enum
from collections import deque

from repro.errors import ProtocolError


class DirState(enum.Enum):
    UNCACHED = "uncached"
    SHARED = "shared"
    EXCLUSIVE = "exclusive"


# Members as globals: a class read costs ~140 ns on 3.11 (DESIGN.md §8).
_UNCACHED = DirState.UNCACHED
_SHARED = DirState.SHARED
_EXCLUSIVE = DirState.EXCLUSIVE


class LineLock:
    """FIFO mutual exclusion for transactions on one line."""

    __slots__ = ("sim", "_locked", "_waiters")

    def __init__(self, sim):
        self.sim = sim
        self._locked = False
        self._waiters = deque()

    def request(self):
        """Take the lock if it is free and return None, or queue the
        caller FIFO and return the event that grants it (DESIGN.md §8)."""
        if not self._locked:
            self._locked = True
            return None
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


class DirectoryEntry:
    """Directory knowledge about one line, and the lock serializing its
    transactions. A transaction looks its entry up once and makes every
    state transition on it (DESIGN.md §8)."""

    __slots__ = ("line", "state", "sharers", "owner", "lock")

    def __init__(self, sim, line_addr):
        self.line = line_addr
        self.state = _UNCACHED
        self.sharers = set()
        self.owner = None
        self.lock = LineLock(sim)

    def grant_shared(self, node):
        if self.state is _EXCLUSIVE:
            raise ProtocolError(
                "shared grant while line {:#x} exclusive at {}".format(
                    self.line, self.owner
                )
            )
        self.state = _SHARED
        self.sharers.add(node)
        self.owner = None

    def grant_exclusive(self, node):
        if self.sharers and self.sharers != {node}:
            raise ProtocolError(
                "exclusive grant of {:#x} with live sharers {}".format(
                    self.line, sorted(self.sharers)
                )
            )
        self.state = _EXCLUSIVE
        self.sharers = set()
        self.owner = node

    def demote_owner(self):
        """EXCLUSIVE -> SHARED {old owner} after a Fetch."""
        if self.state is not _EXCLUSIVE:
            raise ProtocolError("demote of non-exclusive line")
        owner = self.owner
        self.state = _SHARED
        self.sharers = {owner}
        self.owner = None
        return owner

    def drop_sharers(self, nodes):
        """Drop ``nodes`` (an invalidation fan-out's victims, at least
        one) from the sharers in one set difference; a SHARED line left
        without sharers becomes UNCACHED."""
        sharers = self.sharers
        sharers.difference_update(nodes)
        if not sharers and self.state is _SHARED:
            self.state = _UNCACHED

    def release_exclusive(self, node):
        """Owner wrote the line back (PutX)."""
        if self.state is not _EXCLUSIVE or self.owner != node:
            # A stale write-back that raced a later grant: ignore, the
            # line moved on. DASH handles this with a retry NAK; dropping
            # is equivalent here because data is functional.
            return False
        self.state = _UNCACHED
        self.owner = None
        return True

    def __repr__(self):
        if self.state is _EXCLUSIVE:
            detail = "owner={}".format(self.owner)
        else:
            detail = "sharers={}".format(sorted(self.sharers))
        return "DirectoryEntry({}, {})".format(self.state.value, detail)


class Directory:
    """The directory slice held by one home node."""

    def __init__(self, sim, node_id):
        self.sim = sim
        self.node_id = node_id
        self._entries = {}

    def entry(self, line_addr):
        try:
            return self._entries[line_addr]
        except KeyError:
            entry = DirectoryEntry(self.sim, line_addr)
            self._entries[line_addr] = entry
            return entry
