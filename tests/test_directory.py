"""Unit tests for directory state transitions (repro.coherence.directory)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.coherence.directory import Directory, DirState, LineLock
from repro.errors import ProtocolError
from repro.sim import Simulator


def fresh_directory():
    return Directory(Simulator(), node_id=0)


class TestEntryTransitions:
    def test_entries_start_uncached(self):
        directory = fresh_directory()
        entry = directory.entry(0x10)
        assert entry.state is DirState.UNCACHED
        assert entry.sharers == set()
        assert entry.owner is None

    def test_grant_shared_accumulates_sharers(self):
        directory = fresh_directory()
        directory.entry(0x10).grant_shared(1)
        directory.entry(0x10).grant_shared(2)
        entry = directory.entry(0x10)
        assert entry.state is DirState.SHARED
        assert entry.sharers == {1, 2}

    def test_grant_shared_while_exclusive_rejected(self):
        directory = fresh_directory()
        directory.entry(0x10).grant_exclusive(1)
        with pytest.raises(ProtocolError):
            directory.entry(0x10).grant_shared(2)

    def test_grant_exclusive_with_foreign_sharers_rejected(self):
        directory = fresh_directory()
        directory.entry(0x10).grant_shared(1)
        with pytest.raises(ProtocolError):
            directory.entry(0x10).grant_exclusive(2)

    def test_grant_exclusive_to_sole_sharer_allowed(self):
        directory = fresh_directory()
        directory.entry(0x10).grant_shared(2)
        directory.entry(0x10).grant_exclusive(2)
        entry = directory.entry(0x10)
        assert entry.state is DirState.EXCLUSIVE
        assert entry.owner == 2
        assert entry.sharers == set()

    def test_demote_owner(self):
        directory = fresh_directory()
        directory.entry(0x10).grant_exclusive(3)
        owner = directory.entry(0x10).demote_owner()
        assert owner == 3
        entry = directory.entry(0x10)
        assert entry.state is DirState.SHARED
        assert entry.sharers == {3}

    def test_demote_non_exclusive_rejected(self):
        directory = fresh_directory()
        with pytest.raises(ProtocolError):
            directory.entry(0x10).demote_owner()

    def test_drop_last_sharer_returns_to_uncached(self):
        directory = fresh_directory()
        directory.entry(0x10).grant_shared(1)
        directory.entry(0x10).drop_sharers([1])
        assert directory.entry(0x10).state is DirState.UNCACHED

    def test_drop_unknown_sharer_is_noop(self):
        directory = fresh_directory()
        directory.entry(0x10).grant_shared(1)
        directory.entry(0x10).drop_sharers([9])
        assert directory.entry(0x10).sharers == {1}

    def test_release_exclusive_by_owner(self):
        directory = fresh_directory()
        directory.entry(0x10).grant_exclusive(1)
        assert directory.entry(0x10).release_exclusive(1) is True
        assert directory.entry(0x10).state is DirState.UNCACHED

    def test_stale_release_ignored(self):
        # A write-back racing a later grant: the line moved on, DASH
        # would NAK; we drop it.
        directory = fresh_directory()
        entry = directory.entry(0x10)
        entry.grant_exclusive(1)
        entry.release_exclusive(1)
        entry.grant_exclusive(2)
        assert entry.release_exclusive(1) is False
        assert directory.entry(0x10).owner == 2

    def test_repr_mentions_state(self):
        directory = fresh_directory()
        directory.entry(0x10).grant_exclusive(1)
        assert "owner=1" in repr(directory.entry(0x10))
        directory2 = fresh_directory()
        directory2.entry(0x20).grant_shared(3)
        assert "sharers=[3]" in repr(directory2.entry(0x20))


class TestDropSharers:
    @staticmethod
    def _per_victim(entry, victims):
        """The reference: one discard per victim, each followed by the
        SHARED -> UNCACHED check."""
        for victim in victims:
            entry.sharers.discard(victim)
            if not entry.sharers and entry.state is DirState.SHARED:
                entry.state = DirState.UNCACHED

    @given(
        sharers=st.sets(st.integers(0, 15)),
        # A fan-out always has at least one victim.
        victims=st.lists(st.integers(0, 15), min_size=1, unique=True),
        state=st.sampled_from(list(DirState)),
    )
    def test_one_set_difference_equals_the_per_victim_loop(
        self, sharers, victims, state
    ):
        results = []
        for drop in ("one-set", "per-victim"):
            entry = fresh_directory().entry(0x40)
            entry.state = state
            entry.sharers = set(sharers)
            if drop == "one-set":
                entry.drop_sharers(victims)
            else:
                self._per_victim(entry, victims)
            results.append((entry.state, entry.sharers, entry.owner))
        assert results[0] == results[1]


class TestLockRegistry:
    def test_same_lock_object_per_line(self):
        directory = fresh_directory()
        assert directory.entry(0x10).lock is directory.entry(0x10).lock
        assert directory.entry(0x10).lock is not directory.entry(0x20).lock


class TestLineLockRequest:
    def test_free_lock_is_taken_without_an_event(self):
        lock = LineLock(Simulator())
        assert lock.request() is None
        lock.release()
        assert lock.request() is None

    def test_held_lock_queues_requests_fifo(self):
        lock = LineLock(Simulator())
        assert lock.request() is None
        first = lock.request()
        second = lock.request()
        assert not first.triggered and not second.triggered
        lock.release()
        assert first.triggered and not second.triggered
        lock.release()
        assert second.triggered
        lock.release()
        assert lock.request() is None
