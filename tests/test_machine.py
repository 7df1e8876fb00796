"""Unit tests for the machine layer (CPU, node, system)."""

import pytest

from repro.config import (
    SLEEP1_HALT,
    SLEEP2,
    SLEEP3,
    EnergyConfig,
    MachineConfig,
)
from repro.energy.accounting import Category
from repro.errors import ConfigError, SimulationError
from repro.machine import CpuPower, System
from repro.sim import AnyOf


def small_system(n_nodes=4, detailed=True):
    return System(MachineConfig(n_nodes=n_nodes, detailed_memory=detailed))


def run_on_node(system, generator_fn, node_id=0):
    process = system.spawn_thread(node_id, generator_fn(system.nodes[node_id]))
    system.run()
    return process.value


class TestCpuPower:
    def test_calibration_is_consistent(self):
        power = CpuPower.calibrate()
        assert 0 < power.spin_watts < power.compute_watts
        assert power.compute_watts < power.tdp_max_watts

    def test_spin_factor_applied(self):
        energy = EnergyConfig(spin_power_factor=0.85)
        power = CpuPower.calibrate(energy_config=energy)
        assert power.spin_watts == pytest.approx(0.85 * power.compute_watts)

    def test_sleep_watts_ordering(self):
        power = CpuPower.calibrate()
        assert (
            power.sleep_watts(SLEEP1_HALT)
            > power.sleep_watts(SLEEP2)
            > power.sleep_watts(SLEEP3)
        )


class TestCpuCompute:
    def test_compute_advances_time_and_charges_energy(self):
        system = small_system()

        def program(node):
            yield from node.cpu.compute(10_000)

        run_on_node(system, program)
        cpu = system.nodes[0].cpu
        assert system.execution_time_ns == 10_000
        assert cpu.account.time_ns(Category.COMPUTE) == 10_000
        assert cpu.account.energy_joules(Category.COMPUTE) == pytest.approx(
            system.power.compute_watts * 10_000e-9
        )

    def test_negative_compute_rejected(self):
        system = small_system()

        def program(node):
            yield from node.cpu.compute(-5)

        with pytest.raises(SimulationError):
            run_on_node(system, program)

    def test_refill_debt_paid_on_next_compute(self):
        system = small_system()
        cpu = system.nodes[0].cpu
        cpu.add_refill_debt(10)
        assert cpu.refill_debt_ns == 10 * system.config.refill_per_line_ns

        def program(node):
            yield from node.cpu.compute(1_000)

        run_on_node(system, program)
        assert cpu.refill_debt_ns == 0
        assert (
            cpu.account.time_ns(Category.COMPUTE)
            == 1_000 + 10 * system.config.refill_per_line_ns
        )

    def test_negative_refill_debt_rejected(self):
        system = small_system()
        with pytest.raises(SimulationError):
            system.nodes[0].cpu.add_refill_debt(-1)


class TestCpuSpin:
    def test_spin_until_charges_spin_power(self):
        system = small_system()
        release = system.sim.event()
        system.sim.schedule(5_000, release.succeed)

        def program(node):
            spun = yield from node.cpu.spin_until(release)
            return spun

        value = run_on_node(system, program)
        assert value == 5_000
        cpu = system.nodes[0].cpu
        assert cpu.account.time_ns(Category.SPIN) == 5_000
        assert cpu.account.energy_joules(Category.SPIN) == pytest.approx(
            system.power.spin_watts * 5_000e-9
        )


class TestCpuSleep:
    def test_halt_sleep_residency_and_transitions(self):
        system = small_system()
        wake = system.sim.event()
        system.sim.schedule(100_000, wake.succeed)

        def program(node):
            outcome = yield from node.cpu.sleep(SLEEP1_HALT, wake)
            return outcome

        outcome = run_on_node(system, program)
        cpu = system.nodes[0].cpu
        # 10 us in-transition, residency until 100 us, 10 us out.
        assert outcome.resident_ns == 90_000
        assert cpu.account.time_ns(Category.TRANSITION) == 20_000
        assert cpu.account.time_ns(Category.SLEEP) == 90_000
        assert system.execution_time_ns == 110_000
        assert outcome.total_ns == 110_000

    def test_sleep_energy_below_spinning(self):
        system = small_system()
        wake = system.sim.event()
        system.sim.schedule(1_000_000, wake.succeed)

        def program(node):
            yield from node.cpu.sleep(SLEEP1_HALT, wake)

        run_on_node(system, program)
        cpu = system.nodes[0].cpu
        slept_joules = cpu.account.energy_joules()
        spin_joules = system.power.spin_watts * 1_010_000e-9
        assert slept_joules < spin_joules

    def test_wake_already_triggered_gives_zero_residency(self):
        system = small_system()
        wake = system.sim.event().succeed()

        def program(node):
            outcome = yield from node.cpu.sleep(SLEEP1_HALT, wake)
            return outcome

        outcome = run_on_node(system, program)
        assert outcome.resident_ns == 0
        assert outcome.total_ns == SLEEP1_HALT.round_trip_ns

    def test_non_snooping_state_requires_controller(self):
        system = small_system()
        wake = system.sim.event().succeed()

        def program(node):
            yield from node.cpu.sleep(SLEEP2, wake)

        with pytest.raises(SimulationError):
            run_on_node(system, program)

    def test_deep_sleep_flushes_and_accrues_refill_debt(self):
        system = small_system()
        wake = system.sim.event()
        system.sim.schedule(500_000, wake.succeed)

        def program(node):
            yield from node.store(0x1000, 1)  # dirty a line
            outcome = yield from node.cpu.sleep(
                SLEEP3, wake, controller=node.controller, flush_lines=5
            )
            return outcome

        outcome = run_on_node(system, program)
        cpu = system.nodes[0].cpu
        assert outcome.flushed_lines == 6
        assert outcome.flush_ns > 0
        assert cpu.refill_debt_ns == 6 * system.config.refill_per_line_ns
        # Snooping restored after wake.
        assert system.nodes[0].controller.snooping

    def test_deep_sleep_marks_controller_non_snooping(self):
        system = small_system()
        wake = system.sim.event()
        snoop_during_sleep = []

        def observe():
            yield system.sim.timeout(100_000)
            snoop_during_sleep.append(system.nodes[0].controller.snooping)

        def program(node):
            yield from node.cpu.sleep(
                SLEEP2, wake, controller=node.controller
            )

        system.sim.spawn(observe())
        system.spawn_thread(0, program(system.nodes[0]))
        system.sim.schedule(400_000, wake.succeed)
        system.run()
        assert snoop_during_sleep == [False]

    def test_hybrid_race_timer_vs_external(self):
        system = small_system()
        flag_addr = system.alloc_shared()
        external = system.sim.event()
        wake_events = {}

        def writer(node):
            yield from node.cpu.compute(50_000)
            yield from node.store(flag_addr, 1)

        def sleeper(node):
            # The controller "reads in the flag" when armed (Sec. 3.3.1),
            # installing the shared copy whose INV is the wake signal.
            yield from node.load(flag_addr)
            node.controller.arm_flag_monitor(
                flag_addr, lambda line: external.succeed()
            )
            timer_event = system.sim.timeout(1_000_000)
            wake = AnyOf(system.sim, [timer_event, external])
            wake_events["race"] = wake
            outcome = yield from node.cpu.sleep(SLEEP1_HALT, wake)
            return outcome

        process = system.spawn_thread(0, sleeper(system.nodes[0]))
        system.spawn_thread(1, writer(system.nodes[1]))
        system.run()
        # External invalidation (at ~50 us) wins over the 1 ms timer.
        assert wake_events["race"].value is external
        assert process.value.resident_ns < 100_000


class TestNodeAddressing:
    def test_private_addr_homed_locally(self):
        system = small_system()
        for node in system.nodes:
            addr = node.private_addr(128)
            assert system.memsys.home_of(addr) == node.node_id

    def test_private_addr_spans_pages(self):
        system = small_system()
        node = system.nodes[1]
        big_offset = 3 * system.config.page_bytes + 64
        addr = node.private_addr(big_offset)
        assert system.memsys.home_of(addr) == 1

    def test_private_addrs_distinct_across_nodes(self):
        system = small_system()
        addrs = {node.private_addr(0) for node in system.nodes}
        assert len(addrs) == system.n_nodes


class TestSystem:
    def test_alloc_shared_line_spacing(self):
        system = small_system()
        addrs = system.alloc_shared(count=3)
        assert addrs[1] - addrs[0] == system.config.line_bytes
        lines = {system.memsys.line_of(a) for a in addrs}
        assert len(lines) == 3

    def test_alloc_shared_single(self):
        system = small_system()
        first = system.alloc_shared()
        second = system.alloc_shared()
        assert isinstance(first, int)
        assert second > first

    def test_run_threads_runs_on_each_node(self):
        system = small_system()
        visited = []

        def program(node):
            yield from node.cpu.compute(1_000 * (node.node_id + 1))
            visited.append(node.node_id)

        system.run_threads(program)
        assert sorted(visited) == [0, 1, 2, 3]
        assert system.execution_time_ns == 4_000

    def test_run_threads_subset(self):
        system = small_system()

        def program(node):
            yield from node.cpu.compute(100)

        system.run_threads(program, n_threads=2)
        assert system.nodes[2].cpu.account.time_ns() == 0

    def test_too_many_threads_rejected(self):
        system = small_system()
        with pytest.raises(ConfigError):
            system.run_threads(lambda node: iter(()), n_threads=9)

    def test_zero_threads_rejected(self):
        # Only None selects every node.
        system = small_system()
        with pytest.raises(ConfigError, match="need 1 to 4 threads"):
            system.run_threads(lambda node: iter(()), n_threads=0)

    def test_thread_failure_surfaces(self):
        system = small_system()

        def bad(node):
            yield from node.cpu.compute(10)
            raise RuntimeError("thread crashed")

        system.spawn_thread(0, bad(system.nodes[0]))
        with pytest.raises(SimulationError):
            system.run()

    def test_total_account_merges_cpus(self):
        system = small_system()

        def program(node):
            yield from node.cpu.compute(1_000)

        system.run_threads(program)
        total = system.total_account()
        assert total.time_ns(Category.COMPUTE) == 4_000

    def test_mem_op_charged_as_compute(self):
        system = small_system()

        def program(node):
            yield from node.load(0x9999)

        run_on_node(system, program)
        cpu = system.nodes[0].cpu
        assert cpu.account.time_ns(Category.COMPUTE) > 0
        assert cpu.account.time_ns(Category.SPIN) == 0
