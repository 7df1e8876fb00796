"""Record the reference digests the benchmark checks outputs against.

``python3 perfbench/make_references.py`` recomputes every digest from
the program in ``src/`` and rewrites ``perfbench/references.json``.
Only legitimate after a change that is meant to alter what the
simulator computes; the diff of the file shows which outputs moved.

Each table is recorded through a different path from the one the
benchmark measures, so a match also checks that the paths agree:
the matrix serially with no cache (the benchmark runs two workers on
a cold cache), and the service's records from in-process ``run_app``
calls (the benchmark reads them back over HTTP).
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import layers  # noqa: E402
from workloads import (  # noqa: E402
    CELL_SEEDS, CHECK_APPS, CHECK_CONFIGS, CHECK_DEPTH, CHECK_SCHEDULES,
    CHECK_THREADS, CORE_CELLS, MATRIX_THREADS, SERVE_APPS, SERVE_SEEDS,
    SERVE_THREADS, cell_record, digest, exploration_record, record_digests,
)


def cells():
    from repro.config import MachineConfig
    from repro.experiments.configs import barrier_factory_for
    from repro.machine import System
    from repro.workloads import WorkloadRunner, get_model

    table = {}
    for seed in CELL_SEEDS:
        for app, config, threads in CORE_CELLS:
            system = System(MachineConfig(n_nodes=threads))
            runner = WorkloadRunner(
                get_model(app), system=system, n_threads=threads, seed=seed,
                barrier_factory=barrier_factory_for(config),
            )
            run = runner.run()
            key = "{}/{}/{}/{}".format(app, config, threads, seed)
            table[key] = digest(cell_record(system, runner, run))
    return table


def matrix():
    from repro.experiments import run_matrix
    from repro.experiments.export import matrix_to_records

    return {
        str(seed): record_digests(matrix_to_records(
            run_matrix(threads=MATRIX_THREADS, seed=seed, workers=1)))
        for seed in CELL_SEEDS
    }


def serve():
    from repro.experiments.export import matrix_to_records
    from repro.experiments.runner import run_app

    table = {}
    for seed in SERVE_SEEDS:
        for app in SERVE_APPS:
            results = run_app(app, threads=SERVE_THREADS, seed=seed)
            for record in matrix_to_records({app: results}):
                key = "{}/{}/{}".format(app, record["config"], seed)
                table[key] = digest(record)
    return table


def check():
    from repro.check import explore

    ledger = layers.Ledger()
    layers.install(ledger)
    table = {}
    for seed in CELL_SEEDS:
        for app in CHECK_APPS:
            for config in CHECK_CONFIGS:
                first = len(ledger.schedule_keys)
                report = explore(
                    app, config, threads=CHECK_THREADS, seed=seed,
                    max_schedules=CHECK_SCHEDULES, max_depth=CHECK_DEPTH,
                    strategy="dfs",
                )
                if not report.ok:
                    raise SystemExit("{}/{} seed {} is not clean".format(
                        app, config, seed))
                key = "{}/{}/{}/{}".format(app, config, CHECK_THREADS, seed)
                table[key] = digest(exploration_record(
                    report, ledger.schedule_keys[first:]))
    return table


TABLES = {"cells": cells, "matrix": matrix, "serve": serve, "check": check}


def main(argv):
    names = argv or sorted(TABLES)
    path = os.path.join(HERE, "references.json")
    references = {}
    if os.path.exists(path):
        with open(path) as fh:
            references = json.load(fh)
    for name in names:
        references[name] = TABLES[name]()
        print("recorded", name, len(references[name]), flush=True)
    with open(path, "w") as fh:
        json.dump(references, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
