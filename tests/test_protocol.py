"""Integration tests for the directory coherence protocol engine."""

import pytest

from repro.coherence import CacheController, DirState, LineState, MemorySystem
from repro.coherence.directory import LineLock
from repro.coherence.protocol import CONTROL_BYTES, DATA_BYTES
from repro.config import MachineConfig
from repro.errors import ProtocolError
from repro.sim import Simulator
from repro.sim.process import Process


def build_memsys(n_nodes=4, detailed=True):
    sim = Simulator()
    config = MachineConfig(n_nodes=n_nodes, detailed_memory=detailed)
    memsys = MemorySystem(sim, config)
    for node in range(n_nodes):
        memsys.controllers[node] = CacheController(sim, node, memsys)
    return sim, memsys


def run(sim, generator):
    process = sim.spawn(generator)
    sim.run()
    return process.value


class TestAddressMapping:
    def test_round_robin_page_homes(self):
        _, memsys = build_memsys(n_nodes=4)
        page = memsys.config.page_bytes
        assert memsys.home_of(0) == 0
        assert memsys.home_of(page) == 1
        assert memsys.home_of(4 * page) == 0

    def test_line_of(self):
        _, memsys = build_memsys()
        assert memsys.line_of(0) == 0
        assert memsys.line_of(63) == 0
        assert memsys.line_of(64) == 1


class TestLoadStore:
    def test_load_returns_default_zero(self):
        sim, memsys = build_memsys()
        assert run(sim, memsys.load(0, 0x1000)) == 0

    def test_store_then_load_same_node(self):
        sim, memsys = build_memsys()
        run(sim, memsys.store(0, 0x1000, 42))
        assert run(sim, memsys.load(0, 0x1000)) == 42

    def test_store_then_load_remote_node(self):
        sim, memsys = build_memsys()
        run(sim, memsys.store(0, 0x1000, 7))
        assert run(sim, memsys.load(3, 0x1000)) == 7

    def test_second_load_hits_in_l1(self):
        sim, memsys = build_memsys()
        run(sim, memsys.load(0, 0x1000))
        before = sim.now
        run(sim, memsys.load(0, 0x1000))
        assert memsys.stats.l1_hits == 1
        assert sim.now - before == memsys.config.l1.round_trip_ns

    def test_local_miss_cheaper_than_remote_miss(self):
        sim, memsys = build_memsys()
        addr_home0 = 0  # home node 0
        addr_home3 = 3 * memsys.config.page_bytes
        start = sim.now
        run(sim, memsys.load(0, addr_home0))
        local_latency = sim.now - start
        start = sim.now
        run(sim, memsys.load(0, addr_home3))
        remote_latency = sim.now - start
        assert local_latency < remote_latency

    def test_store_invalidates_remote_sharers(self):
        sim, memsys = build_memsys()
        run(sim, memsys.load(1, 0x2000))
        run(sim, memsys.load(2, 0x2000))
        run(sim, memsys.store(0, 0x2000, 5))
        line = memsys.line_of(0x2000)
        assert memsys.hierarchies[1].state(line) is None
        assert memsys.hierarchies[2].state(line) is None
        assert memsys.stats.invalidations == 2

    def test_write_hit_in_modified_is_silent(self):
        sim, memsys = build_memsys()
        run(sim, memsys.store(0, 0x2000, 1))
        misses_before = memsys.stats.misses
        invs_before = memsys.stats.invalidations
        start = sim.now
        run(sim, memsys.store(0, 0x2000, 2))
        assert memsys.stats.misses == misses_before
        assert memsys.stats.invalidations == invs_before
        assert sim.now - start == memsys.config.l1.round_trip_ns
        assert memsys.peek(0x2000) == 2

    def test_read_of_dirty_remote_line_fetches_from_owner(self):
        sim, memsys = build_memsys()
        run(sim, memsys.store(2, 0x3000, 9))
        assert run(sim, memsys.load(1, 0x3000)) == 9
        assert memsys.stats.owner_fetches == 1
        line = memsys.line_of(0x3000)
        # Owner demoted to SHARED; directory tracks both sharers.
        assert memsys.hierarchies[2].state(line) is LineState.SHARED
        home = memsys.home_of(0x3000)
        entry = memsys.directories[home].entry(line)
        assert entry.state is DirState.SHARED
        assert entry.sharers == {1, 2}

    def test_write_to_shared_line_upgrades(self):
        sim, memsys = build_memsys()
        run(sim, memsys.load(0, 0x4000))
        run(sim, memsys.load(1, 0x4000))
        run(sim, memsys.store(0, 0x4000, 3))
        line = memsys.line_of(0x4000)
        assert memsys.hierarchies[0].state(line) is LineState.MODIFIED
        assert memsys.hierarchies[1].state(line) is None

    def test_directory_tracks_exclusive_owner(self):
        sim, memsys = build_memsys()
        run(sim, memsys.store(3, 0x5000, 1))
        home = memsys.home_of(0x5000)
        entry = memsys.directories[home].entry(memsys.line_of(0x5000))
        assert entry.state is DirState.EXCLUSIVE
        assert entry.owner == 3

    def test_two_lines_same_page_share_home(self):
        _, memsys = build_memsys()
        assert memsys.home_of(0x100) == memsys.home_of(0x140)


def recording(transaction, yielded):
    """Run ``transaction``, appending every value it yields."""
    value = None
    while True:
        try:
            target = transaction.send(value)
        except StopIteration as stop:
            return stop.value
        yielded.append(target)
        value = yield target


class TestInvalidationFanOut:
    """A GetX on a line shared by k nodes: 3k plain queue entries."""

    N_NODES = 8
    REQUESTER = 3
    ADDR = 0x0  # line 0, homed at node 0

    def shared_by_all_but_requester(self):
        sim, memsys = build_memsys(n_nodes=self.N_NODES)
        victims = [n for n in range(self.N_NODES) if n != self.REQUESTER]
        for node in victims:
            run(sim, memsys.load(node, self.ADDR))
        return sim, memsys, victims

    def store_dequeues(self, sim, memsys, addr):
        before = sim.executed
        run(sim, memsys.store(self.REQUESTER, addr, 1))
        return sim.executed - before

    def test_makes_three_dequeues_per_victim(self):
        sim, memsys, victims = self.shared_by_all_but_requester()
        home = memsys.home_of(self.ADDR)
        uncached = self.ADDR + memsys.config.line_bytes
        assert memsys.home_of(uncached) == home
        plain = self.store_dequeues(sim, memsys, uncached)
        fan_out = self.store_dequeues(sim, memsys, self.ADDR)
        assert fan_out - plain == 3 * len(victims)
        assert memsys.stats.invalidations == len(victims)

    def test_spawns_no_process(self, monkeypatch):
        sim, memsys, _victims = self.shared_by_all_but_requester()
        created = []
        init = Process.__init__

        def counting_init(self, *args, **kwargs):
            created.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Process, "__init__", counting_init)
        run(sim, memsys.store(self.REQUESTER, self.ADDR, 1))
        assert len(created) == 1  # the requester itself

    def test_victims_invalidated_on_arrival_and_requester_on_last_ack(
        self,
    ):
        sim, memsys, victims = self.shared_by_all_but_requester()
        home = memsys.home_of(self.ADDR)
        network = memsys.network
        started = []
        invalidated = {}
        fan_out = memsys._invalidate_sharers
        deliver = memsys._deliver_invalidation

        def spy_fan_out(*args):
            started.append(sim.now)
            return fan_out(*args)

        def spy_deliver(node, line):
            invalidated[node] = sim.now
            deliver(node, line)

        memsys._invalidate_sharers = spy_fan_out
        memsys._deliver_invalidation = spy_deliver
        run(sim, memsys.store(self.REQUESTER, self.ADDR, 1))
        (now,) = started
        assert invalidated == {
            victim: now + network.latency_ns(home, victim, CONTROL_BYTES)
            for victim in victims
        }
        last_ack = max(
            invalidated[victim]
            + network.latency_ns(victim, home, CONTROL_BYTES)
            for victim in victims
        )
        assert sim.now == (
            last_ack + memsys.memory_access_ns
            + network.latency_ns(home, self.REQUESTER, DATA_BYTES)
        )
        line = memsys.line_of(self.ADDR)
        entry = memsys.directories[home].entry(line)
        assert entry.state is DirState.EXCLUSIVE
        assert entry.owner == self.REQUESTER


class TestLineLockGrants:
    def test_free_grant_does_not_suspend_the_transaction(self):
        sim, memsys = build_memsys()
        for transaction in (
            memsys.load(2, 0x2000),  # GetS
            memsys.store(0, 0x4000, 1),  # GetX
            memsys.writeback(0, memsys.line_of(0x4000)),  # PutX
        ):
            yielded = []
            run(sim, recording(transaction, yielded))
            assert yielded
            assert all(type(target) is int for target in yielded)

    def test_held_lock_queues_the_transaction(self):
        sim, memsys = build_memsys()
        line = memsys.line_of(0x2000)
        lock = memsys.directories[memsys.home_of(0x2000)].entry(line).lock
        assert lock.request() is None  # held by someone else
        sim.schedule(5_000, lock.release)
        yielded = []
        run(sim, recording(memsys.store(1, 0x2000, 7), yielded))
        events = [t for t in yielded if type(t) is not int]
        assert len(events) == 1
        assert sim.now > 5_000
        assert memsys.peek(0x2000) == 7


class TestRmw:
    def test_rmw_returns_old_value(self):
        sim, memsys = build_memsys()
        run(sim, memsys.store(0, 0x6000, 10))
        old = run(sim, memsys.rmw(1, 0x6000, lambda v: v + 1))
        assert old == 10
        assert memsys.peek(0x6000) == 11

    def test_concurrent_rmws_serialize(self):
        sim, memsys = build_memsys()
        addr = 0x7000

        def incrementer(node):
            yield from memsys.rmw(node, addr, lambda v: v + 1)

        for node in range(4):
            sim.spawn(incrementer(node))
        sim.run()
        assert memsys.peek(addr) == 4

    def test_interleaved_rmw_and_loads(self):
        sim, memsys = build_memsys()
        addr = 0x8000
        observed = []

        def reader():
            value = yield from memsys.load(3, addr)
            observed.append(value)

        def writer():
            yield from memsys.rmw(0, addr, lambda v: v + 5)

        sim.spawn(writer())
        sim.spawn(reader())
        sim.run()
        assert observed[0] in (0, 5)
        assert memsys.peek(addr) == 5


class TestWriteback:
    def test_capacity_eviction_writes_back_dirty_line(self):
        sim, memsys = build_memsys()
        n_l2_sets = memsys.config.l2.n_sets
        line_bytes = memsys.config.line_bytes
        base = 0x0
        run(sim, memsys.store(0, base, 1))
        # Evict by filling the same L2 set with 8 more clean lines.
        for way in range(1, 9):
            addr = base + way * n_l2_sets * line_bytes
            run(sim, memsys.load(0, addr))
        assert memsys.stats.writebacks >= 1
        # Ownership released at the directory.
        home = memsys.home_of(base)
        entry = memsys.directories[home].entry(memsys.line_of(base))
        assert entry.state is not DirState.EXCLUSIVE

    def test_reload_after_writeback_sees_value(self):
        sim, memsys = build_memsys()
        n_l2_sets = memsys.config.l2.n_sets
        line_bytes = memsys.config.line_bytes
        run(sim, memsys.store(0, 0x0, 77))
        for way in range(1, 9):
            run(sim, memsys.load(0, way * n_l2_sets * line_bytes))
        assert run(sim, memsys.load(1, 0x0)) == 77


class TestFlagMonitor:
    def test_monitor_fires_on_remote_store(self):
        sim, memsys = build_memsys()
        flag = 0x9000
        run(sim, memsys.load(1, flag))  # node 1 caches the flag
        fired = []
        memsys.controllers[1].arm_flag_monitor(
            flag, lambda line: fired.append(sim.now)
        )
        run(sim, memsys.store(0, flag, 1))
        assert len(fired) == 1

    def test_monitor_does_not_fire_without_invalidation(self):
        sim, memsys = build_memsys()
        flag = 0x9000
        run(sim, memsys.load(1, flag))
        fired = []
        memsys.controllers[1].arm_flag_monitor(
            flag, lambda line: fired.append(sim.now)
        )
        run(sim, memsys.load(2, flag))  # read does not invalidate
        assert fired == []

    def test_disarmed_monitor_does_not_fire(self):
        sim, memsys = build_memsys()
        flag = 0x9000
        run(sim, memsys.load(1, flag))
        fired = []
        controller = memsys.controllers[1]
        callback = lambda line: fired.append(line)  # noqa: E731
        key = controller.arm_flag_monitor(flag, callback)
        controller.disarm_flag_monitor(key, callback)
        run(sim, memsys.store(0, flag, 1))
        assert fired == []

    def test_detailed_mode_keeps_no_monitor_table(self):
        sim, memsys = build_memsys()
        flag = 0x9000
        run(sim, memsys.load(1, flag))
        fired = []
        memsys.controllers[1].arm_flag_monitor(
            flag, lambda line: fired.append(line)
        )
        assert memsys._monitor_nodes == {}
        run(sim, memsys.store(0, flag, 1))
        assert len(fired) == 1
        assert memsys._monitor_nodes == {}

    def test_monitor_fires_once_per_arming(self):
        sim, memsys = build_memsys()
        flag = 0x9000
        run(sim, memsys.load(1, flag))
        fired = []
        memsys.controllers[1].arm_flag_monitor(
            flag, lambda line: fired.append(line)
        )
        run(sim, memsys.store(0, flag, 1))
        run(sim, memsys.load(1, flag))
        run(sim, memsys.store(0, flag, 2))
        assert len(fired) == 1


class TestFlush:
    def test_flush_writes_back_and_invalidates_dirty_lines(self):
        sim, memsys = build_memsys()
        run(sim, memsys.store(0, 0xA000, 1))
        run(sim, memsys.store(0, 0xB000, 2))
        controller = memsys.controllers[0]
        flushed = run(sim, controller.flush_dirty())
        assert flushed == 2
        assert memsys.hierarchies[0].dirty_lines() == []
        assert memsys.stats.writebacks >= 2

    def test_flush_counts_extra_footprint(self):
        sim, memsys = build_memsys()
        controller = memsys.controllers[0]
        start = sim.now
        flushed = run(sim, controller.flush_dirty(extra_lines=100))
        duration = sim.now - start
        assert flushed == 100
        assert duration == (
            memsys.config.flush_base_ns
            + 100 * memsys.config.flush_per_line_ns
        )

    def test_flush_negative_extra_rejected(self):
        sim, memsys = build_memsys()
        with pytest.raises(ProtocolError):
            run(sim, memsys.controllers[0].flush_dirty(extra_lines=-1))

    def test_values_survive_flush(self):
        sim, memsys = build_memsys()
        run(sim, memsys.store(0, 0xA000, 123))
        run(sim, memsys.controllers[0].flush_dirty())
        assert run(sim, memsys.load(2, 0xA000)) == 123


class TestFastMode:
    def test_fast_mode_store_load(self):
        sim, memsys = build_memsys(detailed=False)
        run(sim, memsys.store(0, 0x100, 9))
        assert run(sim, memsys.load(1, 0x100)) == 9

    def test_fast_mode_notifies_monitors(self):
        sim, memsys = build_memsys(detailed=False)
        fired = []
        memsys.controllers[2].arm_flag_monitor(
            0x100, lambda line: fired.append(sim.now)
        )
        run(sim, memsys.store(0, 0x100, 1))
        assert len(fired) == 1

    def test_fast_mode_tracks_watching_nodes(self):
        sim, memsys = build_memsys(detailed=False)
        line = memsys.controllers[2].arm_flag_monitor(0x100, lambda _: None)
        memsys.controllers[3].arm_flag_monitor(0x100, lambda _: None)
        assert memsys._monitor_nodes == {line: {2, 3}}
        run(sim, memsys.store(0, 0x100, 1))
        assert memsys._monitor_nodes == {}

    def test_fast_mode_does_not_notify_writer(self):
        sim, memsys = build_memsys(detailed=False)
        fired = []
        memsys.controllers[0].arm_flag_monitor(
            0x100, lambda line: fired.append(line)
        )
        run(sim, memsys.store(0, 0x100, 1))
        assert fired == []

    def test_fast_mode_rmw(self):
        sim, memsys = build_memsys(detailed=False)
        old = run(sim, memsys.rmw(0, 0x200, lambda v: v + 3))
        assert old == 0
        assert memsys.peek(0x200) == 3


class TestLineLock:
    def test_fifo_order(self):
        sim = Simulator()
        lock = LineLock(sim)
        order = []

        def holder(tag, hold_ns):
            granted = lock.request()
            if granted is not None:
                yield granted
            order.append(("acquire", tag, sim.now))
            yield sim.timeout(hold_ns)
            lock.release()

        for tag in range(3):
            sim.spawn(holder(tag, 10))
        sim.run()
        assert [entry[1] for entry in order] == [0, 1, 2]
        assert [entry[2] for entry in order] == [0, 10, 20]

    def test_release_unheld_rejected(self):
        sim = Simulator()
        with pytest.raises(ProtocolError):
            LineLock(sim).release()
