"""The benchmark's four workloads, driven through public entry points.

Each workload runs in *rounds*: a round is a fixed amount of work
determined by the seed alone, so every count a round reads repeats
exactly, while the host time it takes is what the benchmark measures.
A round checks every output against the committed reference digests;
a mismatch, a failed cell, an HTTP error or an oracle violation is
counted as a failed unit, never raised.

Cell seeds are drawn from ``CELL_SEEDS`` -- the range the committed
references cover -- so every ``--seed`` is checkable. Seed 1 is the
default seed of every figure; on the other seeds the matrix's accuracy
lines show the model's error away from the inputs the figures use.
"""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field

import layers

#: The five live cells of ``benchmarks/bench_core_events.py`` (app,
#: configuration, threads), so ``events_per_s`` on ``cells`` continues
#: that script's trajectory.
CORE_CELLS = (
    ("fmm", "baseline", 16),
    ("fmm", "thrifty", 16),
    ("ocean", "thrifty", 16),
    ("fmm", "thrifty", 64),
    ("fmm", "thrifty", 256),
)

CELL_SEEDS = tuple(range(1, 9))

MATRIX_THREADS = 64
MATRIX_WORKERS = 2

#: Ocean is left out of the service mix: one 8-thread Ocean cell costs
#: as much as a whole campaign of the others.
SERVE_APPS = (
    "volrend", "radix", "fmm", "barnes", "water-nsq", "water-sp", "fft",
    "cholesky", "radiosity",
)
SERVE_THREADS = 8
#: Campaign cell seeds: 6 x 9 apps = 54 campaigns per round, each of
#: which simulates one app, so the median campaign is a simulating one
#: (a cache-only campaign takes ~10 ms of request round trips, which
#: the host's scheduling noise moves by half).
SERVE_SEEDS = CELL_SEEDS[:6]
#: How many cached apps join the n-th campaign of a cell seed (cycled).
SERVE_COMPANIONS = (1, 2, 0)
SERVE_POOL = 2

CHECK_APPS = ("fmm", "radix")
CHECK_CONFIGS = ("baseline", "thrifty-halt", "thrifty")
CHECK_THREADS = 8
CHECK_SCHEDULES = 16
CHECK_DEPTH = 24

#: Counts driven by wall-clock time rather than by the seed; they are
#: reported but excluded from the exact-repeat checks.
TIMED_COUNTS = ("serve.ticks", "experiments.cell_ns")


def cell_seed(seed, index=0):
    """The cell seed of a workload's ``index``-th unit: consecutive units
    take consecutive referenced seeds, so a run mixes several inputs and
    runs of different seeds do comparable work."""
    return CELL_SEEDS[(seed - 1 + index) % len(CELL_SEEDS)]


def digest(value):
    """SHA-256 of a value's canonical JSON form."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Round:
    """One round's measurements."""

    wall_s: float
    units: int
    failed: int
    #: Wall time of each request to the workload's entry point.
    requests_s: list
    #: Simulator dequeues (executed plus cancelled skips).
    events: int
    #: Host seconds the ``events`` took (run phase on ``cells``).
    events_s: float
    cells: int
    counts: dict = field(default_factory=dict)
    self_ns: dict = field(default_factory=dict)
    #: Per-layer figures only the workload itself can measure.
    extra: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)


def _events(counts):
    return counts.get("sim.events", 0) + counts.get("sim.cancelled", 0)


def _mismatch(kind, key, observed, references):
    """True when ``observed`` differs from the committed digest."""
    return references.get(kind, {}).get(key) != observed


class Workload:
    name = None
    #: Whole rounds a run measures at least, however short ``--seconds``.
    min_rounds = 1

    def __init__(self, seed, references, ledger, workdir, env):
        self.seed = seed
        self.references = references
        self.ledger = ledger
        self.workdir = workdir
        self.env = env
        self._dirs = 0
        #: Seconds from a fresh process to its first unit of work.
        self.setup_samples = []

    def fresh_dir(self, label):
        self._dirs += 1
        path = os.path.join(self.workdir, "{}-{}".format(label, self._dirs))
        os.makedirs(path)
        return path

    def setup_once(self):
        """Time one fresh process's set-up into ``setup_samples``."""
        probe_py = os.path.join(os.path.dirname(__file__), "setup_probe.py")
        started = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, probe_py, self.name], stdout=subprocess.PIPE,
            env=self.env,
        ) as probe:
            line = probe.stdout.readline()
            elapsed = time.perf_counter() - started
            probe.stdout.read()
            if probe.wait(timeout=60) != 0 or line.strip() != b"ready":
                raise RuntimeError("set-up probe for {} failed".format(
                    self.name))
        self.setup_samples.append(elapsed)

    def prepare(self, timers):
        """Per-round set-up outside the measured window."""

    def round(self):
        raise NotImplementedError

    def close(self):
        """Stop every process the workload started."""


# ---------------------------------------------------------------------------
# cells


def cell_record(system, runner, run):
    """What a cell's digest covers: times, energy, and the counters."""
    memory = system.memsys.stats
    sync = {}
    for pc in sorted(runner.barriers):
        stats = getattr(runner.barriers[pc], "stats", None)
        if stats is not None:
            sync[str(pc)] = {
                key: value for key, value in sorted(vars(stats).items())
            }
    return {
        "execution_time_ns": run.execution_time_ns,
        "energy": run.total.energy_breakdown(),
        "time": run.total.time_breakdown(),
        "sim": [system.sim.executed, system.sim.skipped_cancelled],
        "coherence": dict(sorted(vars(memory).items())),
        "sync": sync,
    }


class Cells(Workload):
    name = "cells"

    def round(self):
        from repro.config import MachineConfig
        from repro.experiments.configs import barrier_factory_for
        from repro.machine import System
        from repro.workloads import WorkloadRunner, get_model

        ledger = self.ledger
        ledger.reset()
        requests = []
        run_s = 0.0
        failed = 0
        started = time.perf_counter()
        for index, (app, config, threads) in enumerate(CORE_CELLS):
            seed = cell_seed(self.seed, index)
            key = "{}/{}/{}/{}".format(app, config, threads, seed)
            begun = time.perf_counter()
            try:
                system = System(MachineConfig(n_nodes=threads))
                runner = WorkloadRunner(
                    get_model(app), system=system, n_threads=threads,
                    seed=seed,
                    barrier_factory=barrier_factory_for(config),
                )
                built = time.perf_counter()
                run = runner.run()
                ended = time.perf_counter()
                record = cell_record(system, runner, run)
            except Exception as exc:  # noqa: BLE001 - a failed unit
                print("cell {} failed: {!r}".format(key, exc),
                      file=sys.stderr)
                failed += 1
                continue
            requests.append(ended - begun)
            run_s += ended - built
            if _mismatch("cells", key, digest(record), self.references):
                print("cell {}: digest mismatch".format(key),
                      file=sys.stderr)
                failed += 1
        wall = time.perf_counter() - started
        snap = ledger.snapshot()
        counts = snap["counts"]
        return Round(
            wall_s=wall, units=len(CORE_CELLS), failed=failed,
            requests_s=requests, events=_events(counts), events_s=run_s,
            cells=len(CORE_CELLS) - failed, counts=counts,
            self_ns=snap["self_ns"],
        )


# ---------------------------------------------------------------------------
# matrix


def record_digests(records):
    return [digest(record) for record in records]


class Matrix(Workload):
    """Each round is one cold-cache matrix (13-20 s on a 2-vCPU VM)."""

    name = "matrix"

    def round(self):
        from repro.experiments import run_matrix
        from repro.experiments.configs import CONFIG_NAMES
        from repro.experiments.export import matrix_to_records
        from repro.telemetry.metrics import MetricsRegistry
        from repro.workloads.splash2 import SPLASH2_NAMES

        ledger = self.ledger
        ledger.reset()
        flush_dir = self.fresh_dir("spans")
        ledger.flush_dir = flush_dir
        registry = MetricsRegistry()
        units = len(SPLASH2_NAMES) * len(CONFIG_NAMES)
        matrix = {}
        started = time.perf_counter()
        try:
            matrix = run_matrix(
                threads=MATRIX_THREADS, seed=cell_seed(self.seed),
                workers=MATRIX_WORKERS, cache=self.fresh_dir("cache"),
                metrics=registry,
            )
            records = matrix_to_records(matrix)
        except Exception as exc:  # noqa: BLE001 - every cell failed
            print("matrix failed: {!r}".format(exc), file=sys.stderr)
            records = []
        wall = time.perf_counter() - started
        ledger.flush_dir = None
        expected = self.references.get("matrix", {}).get(
            str(cell_seed(self.seed)), [])
        observed = record_digests(records)
        failed = sum(
            1 for index in range(units)
            if index >= len(observed) or index >= len(expected)
            or expected[index] != observed[index]
        )
        main = ledger.snapshot()
        self_ns, counts = layers.merge(
            layers.read_flushed(flush_dir) + [main])
        engine = registry.snapshot()["counters"]
        for name in ("executed", "retries", "failures"):
            counts["experiments.engine." + name] = engine.get(
                "engine." + name, 0)
        counts["experiments.cache.hits"] = engine.get("cache.hits", 0)
        counts["experiments.cache.write_errors"] = engine.get(
            "cache.write_errors", 0)
        worker_s = counts.get("experiments.cell_ns", 0) / 1e9
        notes = [
            "workloads.runs {} live simulations for {} cells".format(
                counts.get("workloads.runs", 0), units),
        ]
        notes.extend(accuracy_lines(matrix))
        return Round(
            wall_s=wall, units=units, failed=failed, requests_s=[wall],
            events=_events(counts), events_s=wall, cells=units - failed,
            counts=dict(counts), self_ns=dict(self_ns),
            extra={
                "experiments.engine.idle_ratio": 1.0 - worker_s / (
                    MATRIX_WORKERS * wall),
                "trace.unattributed_share": unattributed(main),
            },
            notes=notes,
        )


#: Thrifty's headline over the target apps: the paper's figures and
#: the values EXPERIMENTS.md records for seed 1.
PAPER_THRIFTY_SAVINGS = 0.17
PAPER_THRIFTY_SLOWDOWN = 0.02
RECORDED_THRIFTY_SAVINGS = 0.130
RECORDED_THRIFTY_SLOWDOWN = 0.010


def accuracy_lines(matrix):
    """The simulator's error against the paper numbers the repo holds."""
    from repro.experiments.metrics import headline_summary
    from repro.workloads.splash2 import TABLE2_IMBALANCE

    lines = []
    for app, row in matrix.items():
        baseline = row.get("baseline")
        if baseline is None or not hasattr(baseline, "barrier_imbalance"):
            continue
        paper = 100.0 * TABLE2_IMBALANCE[app]
        measured = 100.0 * baseline.barrier_imbalance
        lines.append(
            "accuracy table2.imbalance {:<10} paper {:5.1f}% measured "
            "{:5.1f}% error {:+5.1f} pts".format(
                app, paper, measured, measured - paper)
        )
    try:
        thrifty = headline_summary(matrix)["thrifty"]
    except (StopIteration, KeyError, AttributeError, ZeroDivisionError):
        return lines  # the matrix failed; its cells count as failed
    for label, value, paper, recorded in (
        ("savings", thrifty["target_energy_savings"],
         PAPER_THRIFTY_SAVINGS, RECORDED_THRIFTY_SAVINGS),
        ("slowdown", thrifty["target_slowdown"],
         PAPER_THRIFTY_SLOWDOWN, RECORDED_THRIFTY_SLOWDOWN),
    ):
        lines.append(
            "accuracy thrifty.target_{} measured {:.1%} paper ~{:.0%} "
            "(error {:+.1f} pts); EXPERIMENTS.md, seed 1: {:.1%}".format(
                label, value, paper, 100 * (value - paper), recorded)
        )
    return lines


# ---------------------------------------------------------------------------
# serve


def campaign_specs(seed):
    """The seed's campaign sequence.

    Every campaign simulates exactly one (app, cell seed) pair -- the
    first campaign to ask for it -- beside up to two apps of the same
    cell seed that earlier campaigns already cached. Each app is thus
    simulated once per cell seed whatever the seed, so every seed does
    the same work; the seed picks the order, the grouping and the
    interleaving of the cell seeds.
    """
    from repro.experiments.configs import CONFIG_NAMES

    rng = random.Random("perfbench-serve:{}".format(seed))
    order = {s: rng.sample(SERVE_APPS, len(SERVE_APPS)) for s in SERVE_SEEDS}
    picks = [s for s in SERVE_SEEDS for _ in SERVE_APPS]
    rng.shuffle(picks)
    seen = {s: [] for s in SERVE_SEEDS}
    specs = []
    for cell_seed_ in picks:
        cached = seen[cell_seed_]
        fresh = order[cell_seed_][len(cached)]
        wanted = SERVE_COMPANIONS[len(cached) % len(SERVE_COMPANIONS)]
        companions = rng.sample(cached, min(len(cached), wanted))
        apps = [fresh] + companions
        rng.shuffle(apps)
        specs.append({
            "apps": apps,
            "configs": list(CONFIG_NAMES),
            "threads": SERVE_THREADS,
            "seed": cell_seed_,
        })
        cached.append(fresh)
    return specs


def expected_campaign(spec, references):
    table = references.get("serve", {})
    return [
        table.get("{}/{}/{}".format(app, config, spec["seed"]))
        for app in spec["apps"]
        for config in spec["configs"]
    ]


class ServerProcess:
    """One ``repro serve`` process started through ``serve_host.py``."""

    def __init__(self, workload, timers):
        self.flush_dir = workload.fresh_dir("spans")
        cache = workload.fresh_dir("cache")
        journal = workload.fresh_dir("journal")
        self.log_path = os.path.join(self.flush_dir, "server.log")
        host = os.path.join(os.path.dirname(__file__), "serve_host.py")
        command = [
            sys.executable, host, self.flush_dir, "1" if timers else "0",
            "--port", "0", "--pool", str(SERVE_POOL),
            "--cache-dir", cache, "--journal-dir", journal,
        ]
        self.started = time.perf_counter()
        self._log = open(self.log_path, "wb")
        self.process = subprocess.Popen(
            command, stdout=self._log, stderr=subprocess.STDOUT,
            env=workload.env,
        )
        self.port = None
        self.client = None

    def wait_ready(self, timeout_s=60.0):
        """Seconds from launch until ``GET /`` answers with the pool up."""
        from repro.serve.client import ServeClient

        deadline = time.monotonic() + timeout_s
        while self.port is None:
            with open(self.log_path, "rb") as fh:
                for line in fh:
                    if line.startswith(b"repro serve listening on"):
                        address = line.split()[4].decode()
                        self.port = int(address.rsplit(":", 1)[1])
            if self.port is None:
                if self.process.poll() is not None or \
                        time.monotonic() > deadline:
                    raise RuntimeError("repro serve did not start")
                time.sleep(0.002)
        self.client = ServeClient(port=self.port, timeout=60.0)
        while True:
            health = self.client.health()
            pool = self.client.pool()
            alive = sum(1 for w in pool["workers"] if w["alive"])
            if health.get("ok") and alive >= SERVE_POOL:
                return time.perf_counter() - self.started
            if time.monotonic() > deadline:
                raise RuntimeError("repro serve pool did not come up")
            time.sleep(0.002)

    def stop(self):
        """Shut the server down and wait for it (kill if it hangs)."""
        if self.process.poll() is None:
            try:
                if self.client is not None:
                    self.client.shutdown()
                self.process.wait(timeout=30)
            except Exception:  # noqa: BLE001 - fall back to a kill
                self.process.kill()
                self.process.wait(timeout=30)
        self._log.close()


class Serve(Workload):
    """Each round is a fresh server (cold cache and journal) driven
    through the seed's campaign sequence; its launch is a set-up
    sample."""

    name = "serve"
    #: Two rounds give the 90th percentile over 100+ campaigns.
    min_rounds = 2

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.servers = []
        self.server = None

    def setup_once(self):
        self.prepare(timers=False)
        self.server.stop()

    def prepare(self, timers):
        self.server = ServerProcess(self, timers=timers)
        self.servers.append(self.server)
        self.setup_samples.append(self.server.wait_ready())

    def round(self):
        server = self.server
        client = server.client
        specs = campaign_specs(self.seed)
        latencies = []
        queue_s = []
        cells = cached = deduped = failed = 0
        started = time.perf_counter()
        for spec in specs:
            begun = time.perf_counter()
            try:
                status = client.submit(spec)
                first_simulated = None
                for event in client.events(status["run_id"], timeout=60):
                    kind = event.get("kind")
                    if kind == "serve.cell_resolved" and \
                            not event["cached"] and first_simulated is None:
                        first_simulated = time.perf_counter()
                    if kind in ("serve.campaign_finished",
                                "serve.campaign_cancelled"):
                        break
                document = client.results(status["run_id"])
            except Exception as exc:  # noqa: BLE001 - an HTTP failure
                print("campaign failed: {!r}".format(exc), file=sys.stderr)
                failed += 1
                continue
            latencies.append(time.perf_counter() - begun)
            if first_simulated is not None:
                queue_s.append(first_simulated - begun)
            cells += status["total"]
            cached += status["cached"]
            deduped += status["deduped"]
            observed = record_digests(document["records"])
            if document["failed"] or observed != expected_campaign(
                    spec, self.references):
                print("campaign {}: records mismatch".format(
                    status["run_id"]), file=sys.stderr)
                failed += 1
        wall = time.perf_counter() - started
        server.stop()
        snaps = layers.read_flushed(server.flush_dir)
        self_ns, counts = layers.merge(snaps)
        main = [snap for snap in snaps if snap["pid"] == server.process.pid]
        counts["serve.campaigns"] = len(specs)
        counts["serve.cells"] = cells
        counts["serve.cached"] = cached
        counts["serve.deduped"] = deduped
        simulated = cells - cached - deduped
        worker_s = counts.get("experiments.cell_ns", 0) / 1e9
        extra = {
            "serve.queue_s": median(queue_s) if queue_s else 0.0,
            "serve.pool.idle_ratio": 1.0 - worker_s / (SERVE_POOL * wall),
            "serve.share.cache_hit": cached / cells if cells else 0.0,
            "serve.share.job_attach": deduped / cells if cells else 0.0,
            "serve.share.simulated": simulated / cells if cells else 0.0,
            "trace.unattributed_share": unattributed(main[0]) if main
            else 0.0,
        }
        notes = [
            "serve shares of {} cells: cache hit {:.3f}, job attach {:.3f},"
            " simulated {:.3f}".format(
                cells, extra["serve.share.cache_hit"],
                extra["serve.share.job_attach"],
                extra["serve.share.simulated"]),
        ]
        return Round(
            wall_s=wall, units=len(specs), failed=failed,
            requests_s=latencies, events=_events(counts), events_s=wall,
            cells=cells, counts=dict(counts), self_ns=dict(self_ns),
            extra=extra, notes=notes,
        )

    def close(self):
        for server in self.servers:
            server.stop()


# ---------------------------------------------------------------------------
# check


def exploration_record(report, keys):
    return {
        "schedule_keys": keys,
        "schedules": report.schedules_run,
        "unique": report.unique_schedules,
        "clean": report.ok,
    }


class Check(Workload):
    """A round is one sweep as ``repro check`` runs it: every app under
    every live configuration. The sweep is the request: single
    explorations differ up to twofold in cost by configuration, which
    puts their median on a gap between two configurations."""

    name = "check"
    min_rounds = 4

    def round(self):
        from repro.check import explore

        ledger = self.ledger
        ledger.reset()
        failed = schedules = unique = 0
        started = time.perf_counter()
        # One cell seed per round: exploration cost swings with the
        # cell seed, so mixing seeds within a round spreads the runs.
        seed = cell_seed(self.seed)
        explorations = [
            (app, config) for app in CHECK_APPS for config in CHECK_CONFIGS
        ]
        for app, config in explorations:
            key = "{}/{}/{}/{}".format(app, config, CHECK_THREADS, seed)
            first = len(ledger.schedule_keys)
            try:
                report = explore(
                    app, config, threads=CHECK_THREADS,
                    seed=seed, max_schedules=CHECK_SCHEDULES,
                    max_depth=CHECK_DEPTH, strategy="dfs",
                )
            except Exception as exc:  # noqa: BLE001 - a failed unit
                print("exploration {} failed: {!r}".format(key, exc),
                      file=sys.stderr)
                failed += CHECK_SCHEDULES
                continue
            schedules += report.schedules_run
            unique += report.unique_schedules
            record = exploration_record(
                report, ledger.schedule_keys[first:])
            bad = len(report.failures)
            if _mismatch("check", key, digest(record), self.references):
                print("exploration {}: digest mismatch".format(key),
                      file=sys.stderr)
                bad = report.schedules_run
            failed += bad
        wall = time.perf_counter() - started
        snap = ledger.snapshot()
        counts = snap["counts"]
        counts["check.schedules"] = schedules
        counts["check.unique"] = unique
        units = len(CHECK_APPS) * len(CHECK_CONFIGS) * CHECK_SCHEDULES
        return Round(
            wall_s=wall, units=max(units, schedules), failed=failed,
            requests_s=[wall], events=_events(counts), events_s=wall,
            cells=schedules, counts=counts, self_ns=snap["self_ns"],
        )


WORKLOADS = {cls.name: cls for cls in (Cells, Matrix, Serve, Check)}


def median(values):
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def percentile(values, q):
    """Nearest-rank percentile (``q`` in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def unattributed(snapshot):
    """Share of one process's busy (not idle) traced time outside every
    layer span."""
    self_ns = snapshot["self_ns"]
    busy = sum(self_ns.values()) - self_ns.get(layers.IDLE, 0)
    return self_ns.get(layers.ROOT, 0) / busy if busy else 0.0

