"""Unit and property tests for the hypercube interconnect."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config import MachineConfig
from repro.errors import ConfigError
from repro.interconnect import Hypercube, Network
from repro.sim import Simulator


class TestHypercube:
    def test_dimension_of_64_nodes_is_6(self):
        assert Hypercube(64).dimension == 6

    def test_single_node_cube(self):
        cube = Hypercube(1)
        assert cube.dimension == 0
        assert cube.hops(0, 0) == 0

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ConfigError):
            Hypercube(12)
        with pytest.raises(ConfigError):
            Hypercube(0)

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
            cube.hops(-1, 0)

    @given(st.integers(0, 63), st.integers(0, 63))
    def test_hops_symmetric(self, a, b):
        cube = Hypercube(64)
        assert cube.hops(a, b) == cube.hops(b, a)

    @given(st.integers(0, 63), st.integers(0, 63), st.integers(0, 63))
    def test_hops_triangle_inequality(self, a, b, c):
        cube = Hypercube(64)
        assert cube.hops(a, c) <= cube.hops(a, b) + cube.hops(b, c)


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

    def test_send_invokes_handler_remotely(self):
        sim, net = self._network()
        received = []
        net.send(0, 7, lambda: received.append(sim.now))
        sim.run()
        assert received == [net.latency_ns(0, 7)]

    def test_stats_count_messages_and_hops(self):
        _, net = self._network()
        assert net.delivery_ns(0, 1) == net.latency_ns(0, 1)
        assert net.delivery_ns(0, 3) == net.latency_ns(0, 3)
        assert net.delivery_ns(4, 4) == 0  # local, not counted
        assert net.stats.messages == 2
        assert net.stats.total_hops == 3

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

        for name in ("delivery_ns", "send"):
            monkeypatch.setattr(Network, name, recording(name))
        system = System(MachineConfig(n_nodes=16))
        WorkloadRunner(
            get_model("fmm"), system=system, n_threads=16, seed=1,
            barrier_factory=barrier_factory_for("thrifty"),
        ).run()
        network = system.memsys.network
        # send counts too, node-local messages do not.
        network.send(0, 5, lambda: None, size_bytes=72)
        network.send(3, 3, lambda: None)
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

    def test_local_messages_take_the_cached_route_uncounted(self):
        config = MachineConfig(n_nodes=8)
        sim = Simulator()
        net = Network(sim, Hypercube(8), config.network)
        for _ in range(3):
            assert net.delivery_ns(4, 4) == 0
        assert net.stats.messages == 0
        with pytest.raises(ConfigError):
            net.delivery_ns(4, 4, 0)
