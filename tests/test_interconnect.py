"""Unit and property tests for the hypercube interconnect."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config import MachineConfig
from repro.errors import ConfigError
from repro.interconnect import Hypercube, Network, ecube_path
from repro.interconnect.routing import links_used
from repro.sim import Simulator


class TestHypercube:
    def test_dimension_of_64_nodes_is_6(self):
        assert Hypercube(64).dimension == 6

    def test_single_node_cube(self):
        cube = Hypercube(1)
        assert cube.dimension == 0
        assert cube.neighbors(0) == []
        assert cube.hops(0, 0) == 0

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ConfigError):
            Hypercube(12)
        with pytest.raises(ConfigError):
            Hypercube(0)

    def test_neighbors_differ_in_one_bit(self):
        cube = Hypercube(16)
        for neighbor in cube.neighbors(5):
            assert bin(5 ^ neighbor).count("1") == 1

    def test_hops_is_hamming_distance(self):
        cube = Hypercube(64)
        assert cube.hops(0b000000, 0b111111) == 6
        assert cube.hops(12, 12) == 0
        assert cube.hops(0b1010, 0b0101) == 4

    def test_out_of_range_node_rejected(self):
        cube = Hypercube(8)
        with pytest.raises(ConfigError):
            cube.hops(0, 8)
        with pytest.raises(ConfigError):
            cube.neighbors(-1)

    def test_diameter(self):
        assert Hypercube(64).diameter == 6

    @given(st.integers(0, 63), st.integers(0, 63))
    def test_hops_symmetric(self, a, b):
        cube = Hypercube(64)
        assert cube.hops(a, b) == cube.hops(b, a)

    @given(st.integers(0, 63), st.integers(0, 63), st.integers(0, 63))
    def test_hops_triangle_inequality(self, a, b, c):
        cube = Hypercube(64)
        assert cube.hops(a, c) <= cube.hops(a, b) + cube.hops(b, c)


class TestEcubeRouting:
    def test_path_endpoints(self):
        path = ecube_path(3, 60, 6)
        assert path[0] == 3
        assert path[-1] == 60

    def test_path_length_is_hamming_distance_plus_one(self):
        assert len(ecube_path(0, 0b111, 3)) == 4

    def test_each_hop_flips_one_bit_in_increasing_order(self):
        path = ecube_path(0b0000, 0b1011, 4)
        flipped = [
            (a ^ b).bit_length() - 1 for a, b in zip(path[:-1], path[1:])
        ]
        assert flipped == sorted(flipped)
        assert all(
            bin(a ^ b).count("1") == 1 for a, b in zip(path[:-1], path[1:])
        )

    def test_self_path(self):
        assert ecube_path(9, 9, 6) == [9]

    def test_links_used(self):
        assert links_used(0, 0b11, 2) == [(0, 1), (1, 3)]

    @given(st.integers(0, 63), st.integers(0, 63))
    def test_path_is_valid_walk(self, src, dst):
        cube = Hypercube(64)
        path = ecube_path(src, dst, 6)
        assert len(path) == cube.hops(src, dst) + 1
        for a, b in zip(path[:-1], path[1:]):
            assert b in cube.neighbors(a)


class TestNetwork:
    def _network(self, n_nodes=64):
        config = MachineConfig(n_nodes=n_nodes)
        sim = Simulator()
        return sim, Network(sim, Hypercube(n_nodes), config.network)

    def test_local_delivery_is_free(self):
        _, net = self._network()
        assert net.latency_ns(5, 5) == 0

    def test_control_message_latency_table1(self):
        # 1 hop, 16-byte control message: 2*16 marshal + 16 pin-to-pin.
        _, net = self._network()
        assert net.latency_ns(0, 1, size_bytes=16) == 48

    def test_data_message_pays_serialization(self):
        # 80-byte message = 5 flits: 4 body flits behind the head at 4 ns.
        _, net = self._network()
        assert net.latency_ns(0, 1, size_bytes=80) == 48 + 4 * 4

    def test_latency_grows_with_hops(self):
        _, net = self._network()
        near = net.latency_ns(0, 1)
        far = net.latency_ns(0, 63)
        assert far - near == 5 * 16

    def test_transfer_event_fires_at_latency(self):
        sim, net = self._network()
        event = net.transfer(0, 3, size_bytes=16)
        sim.run()
        assert event.triggered
        assert sim.now == net.latency_ns(0, 3)

    def test_send_invokes_handler_remotely(self):
        sim, net = self._network()
        received = []
        net.send(0, 7, lambda: received.append(sim.now))
        sim.run()
        assert received == [net.latency_ns(0, 7)]

    def test_stats_count_messages_and_hops(self):
        sim, net = self._network()
        net.transfer(0, 1)
        net.transfer(0, 3)
        net.transfer(4, 4)  # local, not counted
        sim.run()
        assert net.stats.messages == 2
        assert net.stats.total_hops == 3
        assert net.stats.mean_hops == pytest.approx(1.5)

    def test_invalid_size_rejected(self):
        _, net = self._network()
        with pytest.raises(ConfigError):
            net.latency_ns(0, 1, size_bytes=0)

    def test_requires_hypercube(self):
        sim = Simulator()
        with pytest.raises(ConfigError):
            Network(sim, object(), MachineConfig().network)


class TestStatsDerivedFromRoutes:
    """``NetworkStats`` is derived on read from per-route counts; it
    must equal counters kept call by call around every message."""

    def test_stats_equal_call_by_call_counters_on_a_cell(self, monkeypatch):
        import functools

        from repro.experiments.configs import barrier_factory_for
        from repro.machine import System
        from repro.workloads import WorkloadRunner, get_model

        calls = []

        def recording(name):
            original = getattr(Network, name)

            @functools.wraps(original)
            def wrapper(self, src, dst, *args, size_bytes=16, **kwargs):
                if name != "send" and args:
                    size_bytes, args = args[0], args[1:]
                calls.append((src, dst, size_bytes))
                return original(
                    self, src, dst, *args, size_bytes=size_bytes, **kwargs
                )
            return wrapper

        for name in ("delivery_ns", "send", "transfer"):
            monkeypatch.setattr(Network, name, recording(name))
        system = System(MachineConfig(n_nodes=16))
        WorkloadRunner(
            get_model("fmm"), system=system, n_threads=16, seed=1,
            barrier_factory=barrier_factory_for("thrifty"),
        ).run()
        network = system.memsys.network
        # send and transfer count too, node-local messages do not.
        network.send(0, 5, lambda: None, size_bytes=72)
        network.send(3, 3, lambda: None)
        network.transfer(6, 9)
        network.transfer(2, 2, size_bytes=8)
        assert len(calls) > 1000

        topology = network.topology
        messages = total_hops = 0
        for src, dst, _size in calls:
            if src == dst:
                continue
            messages += 1
            total_hops += topology.hops(src, dst)
        stats = network.stats
        assert stats.messages == messages
        assert stats.total_hops == total_hops
        assert stats.mean_hops == total_hops / messages

    def test_local_messages_take_the_cached_route_uncounted(self):
        config = MachineConfig(n_nodes=8)
        sim = Simulator()
        net = Network(sim, Hypercube(8), config.network)
        for _ in range(3):
            assert net.delivery_ns(4, 4) == 0
        assert net.stats.messages == 0
        assert net.stats.mean_hops == 0.0
        with pytest.raises(ConfigError):
            net.delivery_ns(4, 4, 0)
