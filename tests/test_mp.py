"""Tests for the message-passing environment (Sections 2 and 7)."""

import pytest

from repro.config import MachineConfig
from repro.energy.accounting import Category
from repro.errors import SimulationError
from repro.machine import System
from repro.mp import (
    MessageEndpoint,
    MpBarrier,
    ThriftyMpBarrier,
    make_endpoints,
)


def build(n_ranks=4):
    system = System(MachineConfig(n_nodes=n_ranks))
    return system, make_endpoints(system)


class TestEndpoint:
    def test_send_recv_payload(self):
        system, endpoints = build()
        received = []

        def sender():
            yield from endpoints[0].send(
                endpoints, 1, "tag", payload={"x": 7}
            )

        def receiver():
            payload = yield from endpoints[1].recv("tag")
            received.append((payload, system.sim.now))

        system.sim.spawn(sender())
        system.sim.spawn(receiver())
        system.sim.run()
        assert received[0][0] == {"x": 7}
        assert received[0][1] > 0  # wire + inject/extract latency

    def test_fifo_per_tag(self):
        system, endpoints = build()
        got = []

        def sender():
            for value in (1, 2, 3):
                yield from endpoints[0].send(
                    endpoints, 1, "tag", payload=value
                )

        def receiver():
            for _ in range(3):
                got.append((yield from endpoints[1].recv("tag")))

        system.sim.spawn(sender())
        system.sim.spawn(receiver())
        system.sim.run()
        assert got == [1, 2, 3]

    def test_tags_are_independent(self):
        system, endpoints = build()
        got = {}

        def sender():
            yield from endpoints[0].send(endpoints, 1, "a", payload="A")
            yield from endpoints[0].send(endpoints, 1, "b", payload="B")

        def receiver():
            got["b"] = yield from endpoints[1].recv("b")
            got["a"] = yield from endpoints[1].recv("a")

        system.sim.spawn(sender())
        system.sim.spawn(receiver())
        system.sim.run()
        assert got == {"a": "A", "b": "B"}

    def test_spin_recv_charges_spin_energy(self):
        system, endpoints = build()

        def sender():
            yield system.sim.timeout(500_000)
            yield from endpoints[0].send(endpoints, 1, "tag")

        def receiver():
            yield from endpoints[1].recv("tag", spin=True)

        system.sim.spawn(sender())
        system.sim.spawn(receiver())
        system.sim.run()
        spin = system.nodes[1].cpu.account.time_ns(Category.SPIN)
        assert spin == pytest.approx(500_000, rel=0.05)

    def test_nonspin_recv_charges_nothing_while_waiting(self):
        system, endpoints = build()

        def sender():
            yield system.sim.timeout(500_000)
            yield from endpoints[0].send(endpoints, 1, "tag")

        def receiver():
            yield from endpoints[1].recv("tag", spin=False)

        system.sim.spawn(sender())
        system.sim.spawn(receiver())
        system.sim.run()
        assert system.nodes[1].cpu.account.time_ns(Category.SPIN) == 0

    def test_interrupt_fires_on_arrival(self):
        system, endpoints = build()
        fired = []
        event = endpoints[1].arm_interrupt()
        event.add_callback(lambda ev: fired.append(system.sim.now))

        def sender():
            yield from endpoints[0].send(endpoints, 1, "tag")

        system.sim.spawn(sender())
        system.sim.run()
        assert len(fired) == 1

    def test_try_recv(self):
        system, endpoints = build()
        assert endpoints[0].try_recv("tag") == (False, None)

    def test_invalid_rank_rejected(self):
        system, _ = build()
        with pytest.raises(SimulationError):
            MessageEndpoint(system, 99)


def run_barrier_loop(system, barrier, schedules):
    """Run the phases; returns each rank's ``(arrived, left)`` times,
    one pair per round, ``left`` being what ``wait`` returned."""
    times = [[] for _ in schedules]
    for rank, phases in enumerate(schedules):
        def program(rank=rank, phases=phases):
            node = system.nodes[rank]
            for duration in phases:
                yield from node.cpu.compute(duration)
                arrived = system.sim.now
                left = yield from barrier.wait(rank)
                times[rank].append((arrived, left))

        system.sim.spawn(program())
    system.run()
    return times


class TestMpBarrier:
    def test_synchronizes_all_ranks(self):
        system, endpoints = build()
        barrier = MpBarrier(system, endpoints)
        schedules = [[100_000 * (r + 1)] * 3 for r in range(4)]
        times = run_barrier_loop(system, barrier, schedules)
        assert barrier.stats.instances == 3
        # Each round, every rank leaves after the slowest rank arrives.
        for round_times in zip(*times):
            arrivals, departures = zip(*round_times)
            assert min(departures) > max(arrivals)

    def test_fast_ranks_spin(self):
        system, endpoints = build()
        barrier = MpBarrier(system, endpoints)
        schedules = [[50_000] * 2, [50_000] * 2, [50_000] * 2,
                     [800_000] * 2]
        run_barrier_loop(system, barrier, schedules)
        spin = system.total_account().time_ns(Category.SPIN)
        assert spin > 3 * 2 * 600_000  # three fast ranks, two rounds


class TestThriftyMpBarrier:
    def _schedules(self, rounds=6):
        return [[100_000] * rounds, [100_000] * rounds,
                [100_000] * rounds, [900_000] * rounds]

    def test_semantically_equivalent(self):
        system, endpoints = build()
        barrier = ThriftyMpBarrier(system, endpoints)
        run_barrier_loop(system, barrier, self._schedules())
        assert barrier.stats.instances == 6

    def test_warm_ranks_sleep(self):
        system, endpoints = build()
        barrier = ThriftyMpBarrier(system, endpoints)
        run_barrier_loop(system, barrier, self._schedules())
        assert barrier.stats.sleeps > 0
        assert system.total_account().time_ns(Category.SLEEP) > 0

    def test_piggybacked_bit_trains_local_predictors(self):
        system, endpoints = build()
        barrier = ThriftyMpBarrier(system, endpoints)
        run_barrier_loop(system, barrier, self._schedules())
        for rank in range(1, 4):
            prediction = barrier.predictors[rank].peek("mp.tb")
            assert prediction is not None
            assert prediction == pytest.approx(900_000, rel=0.2)

    def test_saves_energy_versus_spinning_mp_barrier(self):
        spin_system, spin_endpoints = build()
        spin_barrier = MpBarrier(spin_system, spin_endpoints)
        run_barrier_loop(spin_system, spin_barrier, self._schedules())

        thrifty_system, thrifty_endpoints = build()
        thrifty_barrier = ThriftyMpBarrier(thrifty_system, thrifty_endpoints)
        run_barrier_loop(thrifty_system, thrifty_barrier, self._schedules())
        assert (
            thrifty_system.total_account().energy_joules()
            < 0.95 * spin_system.total_account().energy_joules()
        )

    def test_performance_close_to_spinning(self):
        spin_system, spin_endpoints = build()
        run_barrier_loop(
            spin_system, MpBarrier(spin_system, spin_endpoints),
            self._schedules(),
        )
        thrifty_system, thrifty_endpoints = build()
        run_barrier_loop(
            thrifty_system,
            ThriftyMpBarrier(thrifty_system, thrifty_endpoints),
            self._schedules(),
        )
        ratio = (
            thrifty_system.execution_time_ns
            / spin_system.execution_time_ns
        )
        assert ratio < 1.05

    def test_execution_ends_at_the_last_rank_exit(self):
        # The straggler speeds up in the last round, so the other ranks'
        # countdowns, armed for a 900 us stall, lose to the NIC
        # interrupt; a loser left queued would run after every rank
        # has exited and move the end of the run.
        system, endpoints = build()
        barrier = ThriftyMpBarrier(system, endpoints)
        schedules = self._schedules()
        schedules[3][-1] = 200_000
        times = run_barrier_loop(system, barrier, schedules)
        assert barrier.stats.interrupt_wakes > 0
        last_exit = max(rank_times[-1][1] for rank_times in times)
        assert system.execution_time_ns == last_exit

    def test_empty_ranks_rejected(self):
        system, _ = build()
        with pytest.raises(SimulationError):
            MpBarrier(system, [])
