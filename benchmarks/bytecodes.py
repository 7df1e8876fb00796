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
    PYTHONPATH=src python benchmarks/bytecodes.py --check
    PYTHONPATH=src python benchmarks/bytecodes.py --rebaseline

``--check`` is a CI gate on Python-level work: it counts the
:data:`GATE_CELLS` and fails when a cell executes more than
:data:`GATE_TOLERANCE` above its committed record
(``benchmarks/BENCH_bytecodes.json``), printing each layer's change
beside it. Bytecode differs between CPython minor versions, so the
record holds the version it was counted on and the check runs only
there. It caps work, not time: it weighs a dict probe the same as a
local load and a C call as one instruction, so it does not measure
speed. ``--rebaseline`` rewrites the record; an intentional rise is
re-recorded with its reason stated in CHANGES.md.

The cell is built untraced, exactly as ``bench_core_events.py`` builds
it, and run once uncounted; then a fresh copy's ``runner.run()`` runs
under ``sys.settrace`` with per-opcode events
(``frame.f_trace_opcodes``). The report divides every count by
the cell's dequeues (executed callbacks plus cancelled skips). Counts
are grouped into the layers ``perfbench/layers.py`` reports: a function
in ``repro/<layer>/`` belongs to that layer, and any other function
(the standard library, dataclass-generated ``__init__``, a top-level
``repro`` module) to the layer of its nearest caller that has one.
"""

import argparse
import json
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

RECORD_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "BENCH_bytecodes.json"
)
#: The gate's cells: (app, config, threads, seed).
GATE_CELLS = (
    ("fmm", "baseline", 16, 1),
    ("fmm", "thrifty", 16, 1),
    ("radix", "thrifty-halt", 16, 1),
)
#: The gate fails when a cell's executed bytecodes rise by more than
#: this share of its record. One more attribute read in
#: ``Simulator.run``'s drain loop adds 0.8-0.9% to each cell.
GATE_TOLERANCE = 0.005


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


def _build_cell(app, config, threads, seed):
    system = System(MachineConfig(n_nodes=threads))
    return system, WorkloadRunner(
        get_model(app),
        system=system,
        n_threads=threads,
        seed=seed,
        barrier_factory=barrier_factory_for(config),
    )


def count_cell(app, config, threads, seed):
    """Run one live cell under the counter; returns ``(counts, dequeues)``.

    The same cell runs once uncounted first, so the count leaves out
    one-time work (lazy imports, first-call caches): its size depends
    on the environment, such as ``sys.path``, and on what ran before.
    """
    _build_cell(app, config, threads, seed)[1].run()
    system, runner = _build_cell(app, config, threads, seed)
    counter = OpcodeCounter()
    counter.run(runner.run)
    sim = system.sim
    return dict(counter.counts), sim.executed + sim.skipped_cancelled


def _by_layer(counts):
    by_layer = defaultdict(int)
    for (layer, _), count in counts.items():
        by_layer[layer] += count
    return by_layer


def report(counts, dequeues, top):
    """The printed table: total, per layer, and the ``top`` functions."""
    lines = []
    total = sum(counts.values())
    lines.append("dequeues {:,}   bytecodes {:,}   per dequeue {:.1f}".format(
        dequeues, total, total / dequeues))
    by_layer = _by_layer(counts)
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


def gate_record(python):
    """Count every gate cell on CPython ``python`` (``"3.11"``): the
    record ``--rebaseline`` writes."""
    cells = []
    for app, config, threads, seed in GATE_CELLS:
        counts, dequeues = count_cell(app, config, threads, seed)
        cells.append({
            "cell": [app, config, threads, seed],
            "dequeues": dequeues,
            "bytecodes": sum(counts.values()),
            "layers": dict(sorted(_by_layer(counts).items())),
        })
    return {"python": python, "cells": cells}


def check(record, current, tolerance=GATE_TOLERANCE):
    """Compare ``current`` with ``record``, cell by cell; returns the
    report lines and the cells that rose beyond ``tolerance``."""
    lines, failed = [], []
    recorded = {tuple(cell["cell"]): cell for cell in record["cells"]}
    for cell in current["cells"]:
        key = tuple(cell["cell"])
        name = "{} {} {} seed {}".format(*key)
        base = recorded.get(key)
        if base is None:
            lines.append("{}: not in the record".format(name))
            failed.append(name)
            continue
        rise = cell["bytecodes"] / base["bytecodes"] - 1
        lines.append(
            "{}: {:,} bytecodes over {:,} dequeues, {:.1f} a dequeue; "
            "record {:,} over {:,} ({:+.2%})".format(
                name, cell["bytecodes"], cell["dequeues"],
                cell["bytecodes"] / cell["dequeues"], base["bytecodes"],
                base["dequeues"], rise,
            )
        )
        for layer in sorted(set(cell["layers"]) | set(base["layers"])):
            now = cell["layers"].get(layer, 0)
            was = base["layers"].get(layer, 0)
            if now != was:
                lines.append("    {:<14}{:>12,} -> {:>12,}".format(
                    layer, was, now))
        if rise > tolerance:
            failed.append(name)
    return lines, failed


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Executed bytecodes per dequeue of one live cell.")
    parser.add_argument("app", nargs="?")
    parser.add_argument("config", nargs="?")
    parser.add_argument("threads", type=int, nargs="?")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--top", type=int, default=20,
                        help="functions to list (default 20)")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help="gate the GATE_CELLS against the record")
    mode.add_argument("--rebaseline", action="store_true",
                      help="rewrite the record from the GATE_CELLS")
    args = parser.parse_args(argv)
    if args.check or args.rebaseline:
        if args.app is not None:
            parser.error("--check and --rebaseline take no cell")
        return gate(args.rebaseline)
    if args.threads is None:
        parser.error("give a cell: app config threads")
    counts, dequeues = count_cell(
        args.app, args.config, args.threads, args.seed)
    print("{} {} {} seed {}".format(
        args.app, args.config, args.threads, args.seed))
    print(report(counts, dequeues, args.top))
    return 0


def gate(rebaseline):
    """``--check``, or ``--rebaseline``; returns the exit code."""
    python = "{}.{}".format(*sys.version_info[:2])
    if rebaseline:
        with open(RECORD_PATH, "w") as handle:
            json.dump(gate_record(python), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("re-recorded", RECORD_PATH)
        return 0
    with open(RECORD_PATH) as handle:
        record = json.load(handle)
    if record["python"] != python:
        print("the record was counted on CPython {}; this is {}".format(
            record["python"], python), file=sys.stderr)
        return 2
    lines, failed = check(record, gate_record(python))
    print("\n".join(lines))
    if failed:
        print("bytecode gate FAILED: {} rose more than {:.1%} above the "
              "record".format(", ".join(failed), GATE_TOLERANCE))
        return 1
    print("bytecode gate OK (allows +{:.1%} a cell)".format(GATE_TOLERANCE))
    return 0


if __name__ == "__main__":
    sys.exit(main())
