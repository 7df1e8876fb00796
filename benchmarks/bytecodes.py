"""Executed bytecodes per dequeue of one live cell, by layer and function.

A drift-free work counter for the simulator's hot path. Host timings on
a shared VM move by tens of percent between runs, and a per-call timing
wrapper costs as much as the small functions it times; the number of
bytecode instructions CPython executes for a cell repeats exactly, run
after run, so it can rank candidate optimisations before any timing
does. It is a guide, not a speed: an instruction that allocates costs
more than one that loads a local, and C code (dict probes, ``heapq``,
``OrderedDict``) counts as the one instruction that called it.

Usage::

    PYTHONPATH=src python benchmarks/bytecodes.py ocean thrifty 16
    PYTHONPATH=src python benchmarks/bytecodes.py fmm thrifty 256 --seed 1 --top 25

The cell is built untraced, exactly as ``bench_core_events.py`` builds
it; only ``runner.run()`` runs under ``sys.settrace`` with per-opcode
events (``frame.f_trace_opcodes``). The report divides every count by
the cell's dequeues (executed callbacks plus cancelled skips). Counts
are grouped into the layers ``perfbench/layers.py`` reports: a function
in ``repro/<layer>/`` belongs to that layer, and any other function
(the standard library, dataclass-generated ``__init__``, a top-level
``repro`` module) to the layer of its nearest caller that has one.
"""

import argparse
import os
import sys
from collections import defaultdict

from repro.config import MachineConfig
from repro.experiments.configs import barrier_factory_for
from repro.machine import System
from repro.workloads import WorkloadRunner, get_model

#: perfbench's layer names, in its report order.
LAYERS = (
    "sim", "workloads", "machine", "coherence", "interconnect", "energy",
    "sync", "predict", "telemetry", "faults", "check", "experiments",
    "serve",
)
OTHER = "other"


def _file_layer(filename):
    """The layer owning ``filename``, or None for code outside them."""
    parts = os.path.normpath(filename).split(os.sep)
    if "repro" not in parts:
        return None
    index = len(parts) - 1 - parts[::-1].index("repro")
    layer = parts[index + 1] if index + 2 < len(parts) else None
    return layer if layer in LAYERS else None


class OpcodeCounter:
    """Counts executed bytecodes per ``(layer, function)``."""

    def __init__(self):
        self.counts = defaultdict(int)
        self._file_layers = {}
        self._local_tracers = {}

    def _layer(self, frame):
        file_layers = self._file_layers
        while frame is not None:
            filename = frame.f_code.co_filename
            layer = file_layers.get(filename, False)
            if layer is False:
                layer = file_layers[filename] = _file_layer(filename)
            if layer is not None:
                return layer
            frame = frame.f_back
        return OTHER

    def _local_tracer(self, key):
        tracer = self._local_tracers.get(key)
        if tracer is None:
            counts = self.counts

            def tracer(frame, event, arg):
                if event == "opcode":
                    counts[key] += 1
                return tracer

            self._local_tracers[key] = tracer
        return tracer

    def global_tracer(self, frame, event, arg):
        """The ``sys.settrace`` hook: called at every frame entry and
        generator resume; hands the frame its counting tracer."""
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        code = frame.f_code
        key = (
            self._layer(frame),
            "{}:{}".format(os.path.basename(code.co_filename), code.co_qualname),
        )
        return self._local_tracer(key)

    def run(self, fn):
        sys.settrace(self.global_tracer)
        try:
            return fn()
        finally:
            sys.settrace(None)


def count_cell(app, config, threads, seed):
    """Run one live cell under the counter; returns ``(counts, dequeues)``."""
    system = System(MachineConfig(n_nodes=threads))
    runner = WorkloadRunner(
        get_model(app),
        system=system,
        n_threads=threads,
        seed=seed,
        barrier_factory=barrier_factory_for(config),
    )
    counter = OpcodeCounter()
    counter.run(runner.run)
    sim = system.sim
    return dict(counter.counts), sim.executed + sim.skipped_cancelled


def report(counts, dequeues, top):
    """The printed table: total, per layer, and the ``top`` functions."""
    lines = []
    total = sum(counts.values())
    lines.append("dequeues {:,}   bytecodes {:,}   per dequeue {:.1f}".format(
        dequeues, total, total / dequeues))
    by_layer = defaultdict(int)
    for (layer, _), count in counts.items():
        by_layer[layer] += count
    lines.append("")
    lines.append("{:<14}{:>12}{:>9}".format("layer", "per deq", "share"))
    for layer in sorted(by_layer, key=lambda name: -by_layer[name]):
        lines.append("{:<14}{:>12.1f}{:>8.1%}".format(
            layer, by_layer[layer] / dequeues, by_layer[layer] / total))
    lines.append("")
    lines.append("{:<14}{:<52}{:>9}".format("layer", "function", "per deq"))
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    for (layer, name), count in ranked[:top]:
        lines.append("{:<14}{:<52}{:>9.2f}".format(
            layer, name, count / dequeues))
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Executed bytecodes per dequeue of one live cell.")
    parser.add_argument("app")
    parser.add_argument("config")
    parser.add_argument("threads", type=int)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--top", type=int, default=20,
                        help="functions to list (default 20)")
    args = parser.parse_args(argv)
    counts, dequeues = count_cell(
        args.app, args.config, args.threads, args.seed)
    print("{} {} {} seed {}".format(
        args.app, args.config, args.threads, args.seed))
    print(report(counts, dequeues, args.top))
    return 0


if __name__ == "__main__":
    sys.exit(main())
