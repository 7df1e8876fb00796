"""The repo benchmark: four seeded workloads, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {cells,matrix,serve,check} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``
with the layer timers off. ``--trace 1`` runs one round untraced and
the same round traced, checks that every count agrees, and reports the
per-layer metrics, the tracing overhead and the unattributed
remainder. Both modes check every output against
``perfbench/references.json`` and print human-readable lines followed
by one JSON object as the last line of standard output.

The program is imported from ``src/`` of the checkout this file sits
in; without it the benchmark exits non-zero before measuring.
"""

import argparse
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCES = os.path.join(HERE, "references.json")

#: Fresh-process set-ups per run before measuring; ``setup_s`` is the
#: median of these and of any the rounds make (each ``serve`` round
#: launches its own server).
SETUPS = {"cells": 5, "matrix": 5, "serve": 2, "check": 5}

#: Which end-to-end metric a change to each layer's per-layer metrics
#: should move, and on which workload (``BENCHMARK.json`` has no key
#: for this; the traced run prints it beside each layer's time).
MOVES = {
    "sim": "events_per_s on cells; cells_per_s on check, through the "
           "choice lane",
    "workloads": "cells_per_s on matrix and cells",
    "machine": "cells_per_s and events_per_s on cells",
    "coherence": "events_per_s on cells",
    "interconnect": "events_per_s on cells",
    "energy": "events_per_s on cells",
    "sync": "events_per_s on cells; cells_per_s on matrix, through the "
            "oracle replays",
    "predict": "events_per_s on the thrifty cells of cells",
    "telemetry": "cells_per_s on check",
    "faults": "cells_per_s on check",
    "check": "cells_per_s on check",
    "experiments": "cells_per_s on matrix, through the engine and cache "
                   "puts; request_s.p50 and request_s.p90 on serve, "
                   "through cache gets and the journal",
    "serve": "request_s.p50, request_s.p90 and cells_per_s on serve",
}


def load_program():
    """Put the checkout's ``src`` first on the path and import it."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(
            "perfbench: no program at {} -- run from a full checkout".format(
                SRC)
        )
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit("perfbench: imported repro from outside {}".format(
            SRC))


def load_metric_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def peak_rss_mb():
    """Peak resident memory of this process and its waited-for
    children (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


#: What ``attempted`` counts on each workload.
UNIT_NAMES = {
    "cells": "cells", "matrix": "cells", "serve": "campaigns",
    "check": "schedules",
}


def untimed_counts(counts):
    from workloads import TIMED_COUNTS

    return {k: v for k, v in counts.items() if k not in TIMED_COUNTS}


def measure(workload, seconds):
    """End-to-end metrics over as many rounds as fit in ``seconds``."""
    from workloads import median, percentile

    for _ in range(SETUPS[workload.name]):
        workload.setup_once()
    rounds = []
    failed = 0
    lines = []
    started = time.perf_counter()
    while True:
        workload.prepare(timers=False)
        current = workload.round()
        if rounds and untimed_counts(current.counts) != untimed_counts(
                rounds[0].counts):
            lines.append("counts differ between rounds of one seed")
            failed += current.units
        rounds.append(current)
        if len(rounds) >= workload.min_rounds and \
                time.perf_counter() - started >= seconds:
            break
    requests = [s for r in rounds for s in r.requests_s]
    metrics = {
        "setup_s": median(workload.setup_samples),
        "peak_rss_mb": peak_rss_mb(),
        "cells_per_s": median([r.cells / r.wall_s for r in rounds]),
        "events_per_s": median([r.events / r.events_s for r in rounds]),
        "request_s.p50": median(requests),
        "request_s.p90": percentile(requests, 0.9),
    }
    attempted = sum(r.units for r in rounds)
    failed += sum(r.failed for r in rounds)
    lines.extend(rounds[-1].notes)
    beyond = sum(1 for s in requests if s > metrics["request_s.p90"])
    lines.append("rounds {}  requests {} ({} beyond the p90)  setups {}"
                 .format(len(rounds), len(requests), beyond,
                         len(workload.setup_samples)))
    lines.append("fail_ratio {} ({} of {} {})".format(
        failed / attempted, failed, attempted, UNIT_NAMES[workload.name]))
    # The same figures under their workload-specific names.
    if workload.name == "check":
        lines.append("schedules_per_s {}".format(metrics["cells_per_s"]))
    if workload.name == "serve":
        lines.append("campaign_s.p50 {}  campaign_s.p90 {}".format(
            metrics["request_s.p50"], metrics["request_s.p90"]))
    return metrics, attempted, failed, lines


def trace(workload):
    """One round untraced, the same round traced: per-layer metrics."""
    import layers

    workload.prepare(timers=False)
    plain = workload.round()
    layers.install_timers(workload.ledger)
    workload.prepare(timers=True)
    traced = workload.round()
    lines = list(traced.notes)
    failed = plain.failed + traced.failed
    base = untimed_counts(plain.counts)
    differing = sorted(
        key for key, value in base.items() if traced.counts.get(key) != value
    )
    if differing:
        lines.append("traced counts differ from untraced: {}".format(
            ", ".join(differing)))
        failed += traced.units
    metrics = layer_metrics(traced)
    metrics["trace.overhead"] = traced.wall_s / plain.wall_s
    lines.append("tracing overhead {:.2f}x (traced {:.3f} s / untraced "
                 "{:.3f} s), unattributed {:.1%}".format(
                     metrics["trace.overhead"], traced.wall_s, plain.wall_s,
                     metrics["trace.unattributed_share"]))
    lines.extend(layer_table(traced.self_ns))
    return metrics, plain.units + traced.units, failed, lines


def layer_metrics(round_):
    """Every per-layer metric of one traced round."""
    from workloads import unattributed

    c = dict(round_.counts)
    ns = round_.self_ns

    def seconds(key):
        return ns.get(key, 0) / 1e9

    def ratio(part, whole):
        return part / whole if whole else 0.0

    events = c.get("sim.events", 0) + c.get("sim.cancelled", 0)
    wakes = (c.get("sync.timer_wakes", 0) + c.get("sync.invalidation_wakes", 0)
             + c.get("sync.spurious_wakes", 0))
    cells = c.get("serve.cells", 0)
    metrics = {
        "sim.events": c.get("sim.events", 0),
        "sim.cancelled": c.get("sim.cancelled", 0),
        "sim.self_s": seconds("sim"),
        "sim.ns_per_event": ratio(ns.get("sim", 0), events),
        "workloads.runs": c.get("workloads.runs", 0),
        "workloads.instances": c.get("workloads.instances", 0),
        "workloads.generate_s": seconds("workloads"),
        "machine.build_s": seconds("machine.build"),
        "machine.sleeps": c.get("machine.sleeps", 0),
        "machine.sleep_s": seconds("machine.sleep"),
        "coherence.ops": c.get("coherence.ops", 0),
        "coherence.misses": c.get("coherence.misses", 0),
        "coherence.miss_ratio": ratio(
            c.get("coherence.misses", 0), c.get("coherence.loads", 0)),
        "coherence.invalidations": c.get("coherence.invalidations", 0),
        "coherence.writebacks": c.get("coherence.writebacks", 0),
        "coherence.monitor_fires": c.get("coherence.monitor_fires", 0),
        "coherence.self_s": seconds("coherence"),
        "interconnect.messages": c.get("interconnect.messages", 0),
        "interconnect.mean_hops": ratio(
            c.get("interconnect.hops", 0), c.get("interconnect.messages", 0)),
        "interconnect.self_s": seconds("interconnect"),
        "energy.adds": c.get("energy.adds", 0),
        "energy.self_s": seconds("energy"),
        "sync.waits": c.get("sync.waits", 0),
        "sync.sleeps": c.get("sync.sleeps", 0),
        "sync.timer_wakes": c.get("sync.timer_wakes", 0),
        "sync.invalidation_wakes": c.get("sync.invalidation_wakes", 0),
        "sync.spin_fallbacks": c.get("sync.spin_fallbacks", 0),
        "sync.cutoff_disables": c.get("sync.cutoff_disables", 0),
        "sync.timer_wake_ratio": ratio(c.get("sync.timer_wakes", 0), wakes),
        "sync.self_s": seconds("sync"),
        "sync.oracle_s": seconds("sync.oracle"),
        "predict.predictions": c.get("predict.predictions", 0),
        "predict.cold_misses": c.get("predict.cold_misses", 0),
        "predict.updates": c.get("predict.updates", 0),
        "predict.filtered_updates": c.get("predict.filtered_updates", 0),
        "predict.self_s": seconds("predict"),
        "telemetry.emits": c.get("telemetry.emits", 0),
        "telemetry.emit_s": seconds("telemetry"),
        "faults.invariant_check_s": seconds("faults.invariants"),
        "faults.violations": c.get("faults.violations", 0),
        "check.schedules": c.get("check.schedules", 0),
        "check.unique_ratio": ratio(
            c.get("check.unique", 0), c.get("check.schedules", 0)),
        "check.choice_points": c.get("check.choice_points", 0),
        "check.oracle_s": seconds("check.oracles"),
        "experiments.engine.executed": c.get("experiments.engine.executed", 0),
        "experiments.engine.retries": c.get("experiments.engine.retries", 0),
        "experiments.engine.failures": c.get("experiments.engine.failures", 0),
        "experiments.engine.idle_ratio": 0.0,
        "experiments.cache.gets": c.get("experiments.cache.gets", 0),
        "experiments.cache.hits": c.get("experiments.cache.hits", 0),
        "experiments.cache.hit_ratio": ratio(
            c.get("experiments.cache.hits", 0),
            c.get("experiments.cache.gets", 0)),
        "experiments.cache.get_s": seconds("experiments.cache.get"),
        "experiments.cache.puts": c.get("experiments.cache.puts", 0),
        "experiments.cache.put_s": seconds("experiments.cache.put"),
        "experiments.cache.write_errors": c.get(
            "experiments.cache.write_errors", 0),
        "experiments.journal.appends": c.get("experiments.journal.appends", 0),
        "experiments.journal.append_s": seconds("experiments.journal.append"),
        "experiments.journal.write_errors": c.get(
            "experiments.journal.write_errors", 0),
        "serve.submit_s": seconds("serve.submit"),
        "serve.queue_s": 0.0,
        "serve.results_s": seconds("serve.results"),
        "serve.dedup_ratio": ratio(
            c.get("serve.cached", 0) + c.get("serve.deduped", 0), cells),
        "serve.ticks": c.get("serve.ticks", 0),
        "serve.tick_s": seconds("serve.tick"),
        "serve.pool.dispatches": c.get("serve.pool.dispatches", 0),
        "serve.pool.idle_ratio": 0.0,
        "serve.share.cache_hit": 0.0,
        "serve.share.job_attach": 0.0,
        "serve.share.simulated": 0.0,
        "trace.unattributed_share": unattributed({"self_ns": ns}),
    }
    metrics.update(round_.extra)
    return metrics


def layer_table(self_ns):
    """Human-readable share of traced host time per layer."""
    from layers import IDLE, LAYERS, ROOT, layer_ns

    total = sum(self_ns.values()) or 1
    rows = ["layer self time, all processes (workers wait for cells in "
            "'unattributed'), and what a change to the layer should move:"]
    for layer in LAYERS + (IDLE, ROOT):
        spent = layer_ns(self_ns, layer)
        rows.append("  {:<13} {:9.4f} s {:6.1%}  {}".format(
            layer, spent / 1e9, spent / total, MOVES.get(layer, "")))
    return rows


def main(argv=None):
    sys.path.insert(0, HERE)
    import layers
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    e2e_units, layer_units = load_metric_units()

    with open(REFERENCES) as fh:
        references = json.load(fh)
    workdir = os.path.join(
        ROOT, ".perfbench_work", "{}-{}".format(args.workload, os.getpid()))
    os.makedirs(workdir)
    # Nothing the program writes by default may land outside the
    # checkout: point its default cache and journal roots here.
    os.environ["REPRO_CACHE_DIR"] = os.path.join(workdir, "default-cache")
    os.environ["REPRO_JOURNAL_DIR"] = os.path.join(workdir, "default-runs")
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + HERE)

    ledger = layers.Ledger()
    layers.install(ledger)
    workload = workloads.WORKLOADS[args.workload](
        args.seed, references, ledger, workdir, env)
    try:
        if args.trace:
            metrics, attempted, failed, lines = trace(workload)
            units = layer_units
        else:
            metrics, attempted, failed, lines = measure(
                workload, args.seconds)
            units = e2e_units
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run's work directory is still there
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    for line in lines:
        print(line)
    for name, unit in units.items():
        print("{:<36} {:>16.6g} {}".format(name, metrics[name], unit))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
