"""Tables 1, 2, and 3 of the paper.

Table 1 is a configuration echo plus *measured validation*: probe
transactions through the simulated machine must reproduce the published
round-trip latencies. Table 2 re-measures barrier imbalance per
application on the Baseline. Table 3 echoes the sleep states and grounds
them in watts via the TDPmax microbenchmark.
"""

from dataclasses import dataclass

from repro.config import DEFAULT_SLEEP_STATES, MachineConfig
from repro.energy.tdp import calibrate_tdp_max
from repro.energy.wattch import WattchModel
from repro.experiments.parallel import ExperimentCell, ExperimentEngine
from repro.experiments.runner import DEFAULT_SEED
from repro.machine import System
from repro.workloads.splash2 import (
    SPLASH2_NAMES,
    TABLE2_IMBALANCE,
    TABLE2_PROBLEM_SIZE,
)


@dataclass
class Table1Validation:
    """Measured latencies from probe transactions."""

    l1_round_trip_ns: int
    l2_round_trip_ns: int
    memory_access_ns: int
    network_one_hop_ns: int
    network_diameter_ns: int


def _probe_latencies(system):
    """Measure L1/L2 round trips with real transactions."""
    sim = system.sim
    memsys = system.memsys
    samples = {}

    def probe(node):
        addr = node.private_addr(0)
        yield from node.load(addr)  # install in both levels
        started = sim.now
        yield from node.load(addr)  # L1 hit
        samples["l1"] = sim.now - started
        # Evict the line from the L1 set (2-way) with two conflicting
        # lines; it remains in the larger L2.
        n_l1_sets = system.config.l1.n_sets
        line_bytes = system.config.line_bytes
        for way in (1, 2):
            yield from node.load(
                node.private_addr(way * n_l1_sets * line_bytes)
            )
        started = sim.now
        yield from node.load(addr)  # L2 hit
        samples["l2"] = sim.now - started

    system.spawn_thread(0, probe(system.nodes[0]))
    system.run()
    return samples, memsys


def table1_rows(machine_config=None):
    """Configuration echo + measured probe latencies.

    Returns ``(rows, Table1Validation)`` where rows mirror Table 1's
    (parameter, value) layout.
    """
    config = machine_config or MachineConfig()
    system = System(config)
    samples, memsys = _probe_latencies(system)
    network = memsys.network
    validation = Table1Validation(
        l1_round_trip_ns=samples["l1"],
        l2_round_trip_ns=samples["l2"],
        memory_access_ns=memsys.memory_access_ns,
        network_one_hop_ns=network.latency_ns(0, 1),
        network_diameter_ns=network.latency_ns(0, config.n_nodes - 1),
    )
    rows = [
        ("Processor", "{} MHz, 6-issue dynamic".format(config.cpu_freq_mhz)),
        ("L1 cache", "{} kB, {} B lines, {}-way, RT {} ns".format(
            config.l1.size_bytes // 1024, config.l1.line_bytes,
            config.l1.ways, config.l1.round_trip_ns)),
        ("L2 cache", "{} kB, {} B lines, {}-way, RT {} ns".format(
            config.l2.size_bytes // 1024, config.l2.line_bytes,
            config.l2.ways, config.l2.round_trip_ns)),
        ("Memory bus", "{} MHz, split trans., {} B wide".format(
            config.bus_freq_mhz, config.bus_width_bytes)),
        ("Main memory", "interleaved, {} ns row miss".format(
            config.memory_row_miss_ns)),
        ("Network", "hypercube, wormhole"),
        ("Router", "{} MHz, pipelined".format(
            config.network.router_freq_mhz)),
        ("Pin-to-pin latency", "{} ns".format(config.network.pin_to_pin_ns)),
        ("Endpoint (un)marshaling", "{} ns".format(
            config.network.marshal_ns)),
        ("System size", "{} nodes".format(config.n_nodes)),
    ]
    return rows, validation


def table2_rows(threads=64, seed=DEFAULT_SEED, apps=None, cache=None):
    """Re-measure Table 2: barrier imbalance per application.

    The Baseline cells run through the
    :class:`~repro.experiments.parallel.ExperimentEngine`, so with
    ``cache`` (a result-cache directory, ``True`` for the default one,
    or ``None`` for none) they are the very cells a Figure 5/6 matrix
    of the same threads and seed already cached.

    Returns rows of (application, problem size, paper %, measured %).
    """
    apps = tuple(apps or SPLASH2_NAMES)
    results = ExperimentEngine(cache=cache, strict=True).run_cells(
        ExperimentCell.make(app, "baseline", threads=threads, seed=seed)
        for app in apps
    )
    return [
        (
            app,
            TABLE2_PROBLEM_SIZE[app],
            100.0 * TABLE2_IMBALANCE[app],
            100.0 * result.barrier_imbalance,
        )
        for app, result in zip(apps, results)
    ]


def table3_rows():
    """Table 3 plus the TDP-grounded absolute powers of our model.

    Returns rows of (state, savings %, latency us, snoop?, V-reduction?,
    residency watts) and the calibrated TDPmax.
    """
    model = WattchModel()
    tdp = calibrate_tdp_max(model).tdp_max_watts
    rows = []
    for state in DEFAULT_SLEEP_STATES:
        rows.append(
            (
                state.name,
                100.0 * state.power_savings,
                state.transition_latency_ns / 1_000.0,
                "Yes" if state.snoops else "No",
                "Yes" if state.voltage_reduction else "No",
                state.residency_power(tdp),
            )
        )
    return rows, tdp
