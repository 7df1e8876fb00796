"""Command-line interface: regenerate any table or figure, or run the
harness around them (telemetry cells, chaos campaigns, schedule
exploration, the campaign service, cache and journal upkeep).

:func:`build_parser` gives each verb its own subcommand, which takes only
the flags its handler reads; flags that several verbs share are declared
once, in parent parsers. ``repro --help`` lists the verbs and the exit
codes (:data:`EXIT_CODES`), ``repro VERB --help`` a verb's flags, and
README.md has worked examples::

    repro figure5 --apps fmm ocean --threads 16 --json figure5.json
    repro run --app fmm --config thrifty --threads 16 --trace out.json
    repro chaos --run-id soak --plans 25      # journaled; --resume soak
    repro check --mutant racy-check-in        # must be caught: exits 1

Each handler imports what it runs, so the result-cache and campaign-client
verbs start without loading the simulator. A handler reports bad input by
raising :class:`~repro.errors.ConfigError`, which :func:`main` turns into
one stderr line and exit status :data:`EXIT_USAGE`, as the parser does for
an unknown verb, flag or flag value.
"""

import argparse
import sys

from repro.config import DEFAULT_SEED, MachineConfig
from repro.errors import CampaignInterrupted, ConfigError, ServeError
from repro.experiments.preemption import EXIT_RESUMABLE, PreemptionGuard
from repro.serve import DEFAULT_PORT as SERVE_DEFAULT_PORT

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
# EXIT_RESUMABLE (3) is defined in repro.experiments.preemption and
# re-exported here so every exit status reads from one module.

EXIT_CODES = """\
exit status:
  0  clean completion (chaos: no invariant violation; check: every
     schedule clean, or a replay reproduced its artifact)
  1  finished with violations or failed cells, or the campaign
     service failed
  2  bad invocation: unknown verb, flag, application, configuration
     or run id, or a bad flag value
  3  preempted; everything finished is journaled or cached, and
     --resume continues it

'repro VERB --help' lists the flags each verb takes."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one stderr line."""

    def error(self, message):
        self.exit(EXIT_USAGE, "{}: error: {} (see {} --help)\n".format(
            self.prog, message, self.prog,
        ))


def positive_int(text):
    """argparse type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            "must be at least 1, got {}".format(value)
        )
    return value


def non_negative_int(text):
    """argparse type: an integer of at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            "must be at least 0, got {}".format(value)
        )
    return value


def thread_count(text):
    """argparse type: a thread count the default machine hosts, one
    thread per node."""
    value = positive_int(text)
    if value > MachineConfig.n_nodes:
        raise argparse.ArgumentTypeError(
            "must be at most {} (one thread per node), got {}".format(
                MachineConfig.n_nodes, value
            )
        )
    return value


def _flag(*names, parents=(), **kwargs):
    """A parent parser holding a flag that several verbs share."""
    parent = _Parser(add_help=False, parents=parents)
    parent.add_argument(*names, **kwargs)
    return parent


def build_parser():
    parser = _Parser(
        prog="thrifty-barrier",
        description=(
            "Reproduce tables and figures of 'The Thrifty Barrier' "
            "(HPCA 2004)."
        ),
        epilog=EXIT_CODES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    verbs = parser.add_subparsers(dest="verb", required=True,
                                  metavar="VERB")

    def verb(name, handler, summary, *parents):
        sub = verbs.add_parser(name, help=summary, description=summary,
                               parents=parents)
        sub.set_defaults(handler=handler)
        return sub

    seed = _flag("--seed", type=int, default=DEFAULT_SEED,
                 help="workload random seed (default %(default)s)")
    workload = _flag(
        "--threads", parents=[seed], type=thread_count, default=64,
        help="thread/processor count (default 64, as in the paper)",
    )
    apps = _flag("--apps", nargs="*", metavar="APP",
                 help="applications to include (default: all ten)")
    app = _flag("--app", default="fmm", help="application (default fmm)")
    configs = _flag("--configs", nargs="*", metavar="CFG",
                    help="configurations to include (default: all five)")
    intensity = _flag(
        "--intensity", type=float, default=1.0,
        help="fault-probability scale of sampled fault plans (default 1.0)",
    )
    workers = _flag(
        "--workers", type=non_negative_int, default=1, metavar="N",
        help="worker processes (default 1 = serial; 0 = one per CPU); "
             "results are bit-identical either way",
    )
    cache_dir = _flag(
        "--cache-dir", metavar="PATH",
        help="result-cache directory (default: $REPRO_CACHE_DIR or "
             "~/.cache/repro-thrifty)",
    )
    cached = _flag("--no-cache", parents=[cache_dir], action="store_true",
                   help="disable the on-disk result cache")
    journal_dir = _flag(
        "--journal-dir", metavar="PATH",
        help="run-journal root (default: $REPRO_JOURNAL_DIR or "
             "<cache dir>/runs)",
    )
    journaled = _flag(
        "--run-id", parents=[journal_dir], metavar="ID",
        help="journal this campaign under ID (durable per-cell records; "
             "a killed run becomes resumable)",
    )
    journaled.add_argument(
        "--resume", metavar="ID",
        help="resume the journaled campaign ID: skip finished cells, "
             "produce output byte-identical to an uninterrupted run",
    )
    json_out = _flag(
        "--json", metavar="PATH",
        help="also write the result as JSON (results: instead of "
             "printing it)",
    )
    matrix = _flag(
        "--csv", metavar="PATH", help="also write the run matrix as CSV",
        parents=[apps, workload, workers, cached, journaled, json_out],
    )
    chart = _flag("--chart", action="store_true",
                  help="append ASCII bar charts to the figures")
    address = _flag(
        "--host", default="127.0.0.1", metavar="ADDR",
        help="campaign-service bind/connect address (default 127.0.0.1)",
    )
    address.add_argument(
        "--port", type=int, default=SERVE_DEFAULT_PORT,
        help="campaign-service port (default %(default)s; 0 = pick a "
             "free port when serving)",
    )
    campaign = _flag(
        "run_id", parents=[address], metavar="CAMPAIGN_ID",
        help="the campaign's run id, as 'repro submit' printed it",
    )

    verb("table1", _run_table_command, "Table 1: the simulated architecture")
    verb("table2", _run_table_command,
         "Table 2: barrier imbalance per application", apps, workload, cached)
    verb("table3", _run_table_command, "Table 3: the CPU sleep states")
    verb("figure3", _run_table_command,
         "Figure 3: FMM's BIT/BST variability", workload)
    verb("figure5", _run_matrix_command,
         "Figure 5: normalized energy per application", matrix, chart)
    verb("figure6", _run_matrix_command,
         "Figure 6: normalized execution time", matrix, chart)
    verb("headline", _run_matrix_command, "the Section 5.1 aggregates",
         matrix)
    verb("all", _run_matrix_command, "every table and figure", matrix, chart)

    cell = _flag("--config", parents=[app, workload], default="thrifty",
                 help="configuration (default thrifty)")
    cell.add_argument(
        "--trace", metavar="PATH",
        help="write a Perfetto-loadable Chrome trace of the cell",
    )
    cell.add_argument("--metrics-csv", metavar="PATH",
                      help="write the cell's metrics as CSV")
    verb("run", _run_cell_command,
         "run one traced cell and print its summary", cell)
    verb("trace", _run_cell_command,
         "print one traced cell's timeline digest", cell)
    verb("metrics", _run_cell_command,
         "print one traced cell's metrics tables", cell)

    chaos = verb(
        "chaos", _run_chaos_command, "run a seeded fault-injection campaign",
        apps, configs, workload, intensity, workers, journaled, json_out,
    )
    chaos.add_argument("--plans", type=int, default=5, metavar="N",
                       help="number of sampled fault plans (default 5)")
    chaos.add_argument(
        "--fail-fast", action="store_true",
        help="end the report at the first violating cell in sweep order "
             "(the campaign still simulates every planned cell)",
    )

    check = verb(
        "check", _run_check_command,
        "model-check the protocols over same-time event orderings",
        app, configs, seed, intensity,
    )
    check.add_argument(
        "--threads", type=positive_int, default=8,
        help="thread/processor count (default 8: exploration budgets "
             "scale with the choice-point count)",
    )
    check.add_argument(
        "--schedules", type=int, default=64, metavar="N",
        help="schedule budget per explored cell (default 64)",
    )
    check.add_argument(
        "--depth", type=int, default=24, metavar="N",
        help="deepest choice point the dfs strategy deviates at "
             "(default 24; random walks are unbounded)",
    )
    check.add_argument(
        "--strategy", choices=("dfs", "random"), default="dfs",
        help="'dfs' for CHESS-style bounded systematic search, 'random' "
             "for seeded random walks (default dfs)",
    )
    check.add_argument(
        "--mutant", metavar="NAME",
        help="explore a deliberately broken barrier variant from "
             "repro.sync.mutants instead of the correct one (its "
             "registered cell supplies the defaults)",
    )
    check.add_argument(
        "--plan-seed", type=int, metavar="N",
        help="compose a sampled FaultPlan (seeded with N, scaled by "
             "--intensity) with the exploration",
    )
    check.add_argument(
        "--counterexample", metavar="PATH", default="counterexample.json",
        help="where to write the minimized replayable counterexample "
             "when a violation is found (default counterexample.json; a "
             "Perfetto witness trace is written beside it)",
    )
    check.add_argument(
        "--replay", metavar="PATH",
        help="replay a counterexample artifact and exit 0 iff the "
             "recorded violations reproduce exactly",
    )

    serve = verb("serve", _run_serve_command,
                 "run the campaign service until shut down",
                 address, cache_dir, journal_dir)
    serve.add_argument(
        "--pool", type=int, default=2, metavar="N",
        help="initial worker-pool size (default 2; hotplug at runtime "
             "via POST /pool)",
    )
    serve.add_argument(
        "--idle-timeout", type=float, default=30.0, metavar="S",
        help="per-connection idle/read deadline in seconds; a stalled "
             "client gets 408 and its connection back (default 30, 0 "
             "disables)",
    )
    serve.add_argument(
        "--max-connections", type=int, default=128, metavar="N",
        help="load-shedding cap on concurrent connections; beyond it new "
             "requests get 503 + Retry-After (default 128, 0 disables)",
    )
    verb("submit", _submit,
         "submit a campaign to the service; prints its run id",
         address, apps, configs, workload)
    verb("status", _status, "print a campaign's status as JSON", campaign)
    results = verb(
        "results", _results,
        "wait for a campaign to finish and print its records as JSON",
        campaign, json_out,
    )
    results.add_argument(
        "--timeout", type=float, default=600.0, metavar="S",
        help="wait budget in seconds (default 600)",
    )
    verb("cancel", _cancel, "cancel a campaign", campaign)
    verb("shutdown", _shutdown, "stop the service", address)

    cache = verb("cache", _run_cache_command,
                 "result-cache stats and upkeep", cache_dir)
    cache.add_argument(
        "action", nargs="?", default="stats",
        choices=("stats", "prune", "clear"),
        help="print the cache's stats (default), evict the oldest "
             "entries beyond --max-entries, or remove every entry",
    )
    cache.add_argument("--max-entries", type=int, metavar="N",
                       help="entry budget for 'prune'")
    fsck = verb("fsck", _run_fsck_command,
                "audit (and repair) run journals and the result cache",
                cached, journal_dir)
    fsck.add_argument("run_id", nargs="?", metavar="RUN_ID",
                      help="the one run to audit (default: every journal)")
    fsck.add_argument(
        "--repair", action="store_true",
        help="apply the safe repairs (truncate torn journal tails, "
             "quarantine corrupt cache entries, sweep stale tmp files) "
             "instead of only reporting",
    )
    return parser


def _emit(text):
    print(text)
    print()


def _cache_argument(args):
    """Map the cache flags to run_matrix's ``cache`` argument."""
    if args.no_cache:
        return None
    if args.cache_dir is not None:
        return args.cache_dir
    return True


def _journal_argument(args, spec, total):
    """Build the run journal the flags ask for (or ``None``).

    ``--resume`` opens an existing journal, verifies the invocation
    describes the *same* campaign (spec hash), and appends a
    ``resumed`` record; ``--run-id`` creates a fresh one. Returns
    ``(journal, resumed_count)``.
    """
    from repro.experiments.journal import RunJournal

    if args.resume:
        journal = RunJournal.open(args.resume, root=args.journal_dir)
        journal.verify_spec(spec)
        completed = len(journal.replay().completed)
        journal.record_resumed(
            completed=completed, remaining=max(0, total - completed),
        )
        return journal, completed
    if args.run_id:
        return (
            RunJournal.create(spec, run_id=args.run_id,
                              root=args.journal_dir),
            0,
        )
    return None, 0


def _resume_hint(args, run_id):
    hint = "--resume {}".format(run_id)
    if args.journal_dir:
        hint += " --journal-dir {}".format(args.journal_dir)
    return hint


def _run_table_command(args):
    """table1 / table2 / table3 / figure3, which need no matrix; ``all``
    prints them first."""
    from repro.experiments import figures, report, tables
    from repro.workloads.splash2 import check_apps

    if args.verb in ("table1", "all"):
        _emit(report.render_table1(*tables.table1_rows()))
    if args.verb in ("table2", "all"):
        check_apps(args.apps or ())
        _emit(report.render_table2(tables.table2_rows(
            threads=args.threads, seed=args.seed, apps=args.apps,
            cache=_cache_argument(args),
        )))
    if args.verb in ("table3", "all"):
        _emit(report.render_table3(*tables.table3_rows()))
    if args.verb in ("figure3", "all"):
        _emit(report.render_figure3(
            figures.figure3_rows(threads=args.threads, seed=args.seed)
        ))
    return EXIT_OK


def _render_engine_metrics(engine_metrics):
    from repro.experiments import report

    _emit(report.render_metrics(
        engine_metrics, title="Run summary — engine & cache counters",
        prefixes=("engine.", "cache.", "journal.", "storage."),
    ))


def _run_matrix_command(args):
    """figure5 / figure6 / headline / all: run the application x
    configuration matrix on the engine (journaled with ``--run-id``,
    resumable with ``--resume``, preemption-aware), then print the
    verb's artifacts."""
    from repro import __version__
    from repro.experiments import figures, report
    from repro.experiments.configs import CONFIG_NAMES
    from repro.experiments.runner import run_matrix
    from repro.telemetry.metrics import MetricsRegistry
    from repro.workloads.splash2 import SPLASH2_NAMES, check_apps

    check_apps(args.apps or ())
    apps = tuple(args.apps or SPLASH2_NAMES)
    spec = {
        "kind": "matrix", "apps": list(apps),
        "configs": list(CONFIG_NAMES), "threads": args.threads,
        "seed": args.seed, "version": __version__,
    }
    journal, resumed = _journal_argument(
        args, spec, total=len(apps) * len(CONFIG_NAMES),
    )
    engine_metrics = MetricsRegistry()
    if args.resume:
        from repro.telemetry.events import ResumeStarted

        ResumeStarted(
            ts=0, run_id=journal.run_id, completed=resumed,
            remaining=len(apps) * len(CONFIG_NAMES) - resumed,
        ).record(engine_metrics)
    try:
        with PreemptionGuard() as guard:
            matrix = run_matrix(
                apps=apps, threads=args.threads, seed=args.seed,
                workers=args.workers or None,
                cache=_cache_argument(args),
                metrics=engine_metrics,
                journal=journal,
                preemption=guard,
            )
    except CampaignInterrupted as exc:
        print(
            "preempted ({} of {} cells finished); everything "
            "completed is {}".format(
                exc.completed, exc.total,
                "journaled and cached" if journal is not None
                else "in the result cache",
            ),
            file=sys.stderr,
        )
        if exc.run_id:
            print(
                "resume with: repro {} {}".format(
                    args.verb, _resume_hint(args, exc.run_id)
                ),
                file=sys.stderr,
            )
        if len(engine_metrics):
            _render_engine_metrics(engine_metrics)
        return EXIT_RESUMABLE
    if args.verb == "all":
        _run_table_command(args)
    if args.verb in ("figure5", "all"):
        rows = figures.figure5_rows(matrix)
        _emit(report.render_figure5(rows))
        if args.chart:
            _emit(report.render_bar_chart(rows))
    if args.verb in ("figure6", "all"):
        rows = figures.figure6_rows(matrix)
        _emit(report.render_figure6(rows))
        if args.chart:
            _emit(report.render_bar_chart(rows, value_key="wall"))
    if args.verb in ("headline", "all"):
        _emit(report.render_headline(matrix))
    if args.json:
        from repro.experiments.export import matrix_to_json

        matrix_to_json(matrix, path=args.json)
    if args.csv:
        from repro.experiments.export import matrix_to_records, records_to_csv

        records_to_csv(matrix_to_records(matrix), args.csv)
    if len(engine_metrics):
        _render_engine_metrics(engine_metrics)
    return EXIT_OK


def _run_cell_command(args):
    """The run / trace / metrics telemetry commands: one traced cell."""
    from repro.experiments import report
    from repro.experiments.configs import check_configs
    from repro.experiments.runner import run_experiment
    from repro.telemetry.export import metrics_to_csv, write_chrome_trace
    from repro.workloads.splash2 import check_apps

    check_apps((args.app,))
    check_configs((args.config,))
    result = run_experiment(
        args.app, args.config, threads=args.threads, seed=args.seed,
        telemetry=True,
    )
    snapshot = result.telemetry
    if args.verb == "run":
        _emit(report.render_table(
            ("Field", "Value"),
            [
                ("app", result.app),
                ("config", result.config),
                ("threads", result.n_threads),
                ("execution time", "{:,} ns".format(
                    result.execution_time_ns
                )),
                ("energy", "{:.3f} J".format(result.energy_joules)),
                ("barrier imbalance", "{:.4f}".format(
                    result.barrier_imbalance
                )),
                ("events traced", "{:,}".format(len(snapshot.events))),
            ],
            title="Cell summary",
        ))
        _emit(report.render_metrics(
            snapshot.metrics, title="Cell metrics",
            prefixes=("barrier.", "sleep.", "wake.", "predictor."),
        ))
    elif args.verb == "trace":
        _emit(report.render_trace_summary(snapshot.events))
    else:  # metrics
        _emit(report.render_metrics(snapshot.metrics))
    if args.trace:
        write_chrome_trace(
            snapshot.events, args.trace,
            process_name="{} {}".format(result.app, result.config),
        )
        print("chrome trace written to {} ({:,} events; open in "
              "https://ui.perfetto.dev)".format(
                  args.trace, len(snapshot.events)))
    if args.metrics_csv:
        metrics_to_csv(snapshot.metrics, args.metrics_csv)
        print("metrics CSV written to {}".format(args.metrics_csv))
    return EXIT_OK


def _run_chaos_command(args):
    """The ``chaos`` command: a seeded fault campaign with auditing.

    Runs on the experiment engine (``--workers``), journaled
    (``--run-id``/``--resume``) and preemption-aware: a SIGTERM/SIGINT
    reports the partial campaign instead of discarding it and exits
    :data:`EXIT_RESUMABLE`.
    """
    import json

    from repro import __version__
    from repro.experiments.configs import CONFIG_NAMES, check_configs
    from repro.faults.chaos import (
        chaos_report_as_dict,
        render_chaos_report,
        run_chaos_campaign,
        sample_plans,
    )
    from repro.workloads.splash2 import check_apps

    check_apps(args.apps or ())
    check_configs(args.configs or ())
    apps = tuple(args.apps or ("fmm",))
    configs = tuple(args.configs or CONFIG_NAMES)
    plans = sample_plans(args.plans, seed=args.seed, intensity=args.intensity)
    spec = {
        "kind": "chaos", "apps": list(apps), "configs": list(configs),
        "threads": args.threads, "seed": args.seed, "plans": args.plans,
        "intensity": args.intensity, "version": __version__,
    }
    # Each (app, config) also runs one clean reference cell.
    journal, _resumed = _journal_argument(
        args, spec, total=len(apps) * len(configs) * (args.plans + 1),
    )
    with PreemptionGuard() as guard:
        campaign = run_chaos_campaign(
            plans, apps=apps, configs=configs,
            threads=args.threads, seed=args.seed,
            journal=journal, preemption=guard,
            fail_fast=args.fail_fast, workers=args.workers or None,
        )
    _emit(render_chaos_report(campaign))
    if args.json:
        from repro.faults.storage import atomic_write_text

        atomic_write_text(
            args.json,
            json.dumps(chaos_report_as_dict(campaign), indent=2,
                       sort_keys=True) + "\n",
        )
        print("chaos report written to {}".format(args.json))
    if campaign.interrupted:
        if campaign.run_id:
            print("resume with: repro chaos {}".format(
                _resume_hint(args, campaign.run_id)
            ))
        else:
            print("re-run with --run-id to make interrupted campaigns "
                  "resumable")
        return EXIT_RESUMABLE
    return EXIT_OK if campaign.ok else EXIT_VIOLATION


def _usage(message):
    print(message, file=sys.stderr)
    return EXIT_USAGE


def _run_check_command(args):
    """``repro check``: model-check the protocol over tie-break orders.

    Explores bounded alternative same-timestamp event orderings of
    each requested configuration (default: all five paper configs) and
    audits every schedule with the full oracle set. The first
    violation is shrunk to a minimal decision string and exported as a
    replayable artifact (``--counterexample``) plus a Perfetto witness
    trace; ``--replay FILE`` re-runs an artifact and exits 0 iff the
    recorded violations reproduce exactly. ``--mutant NAME`` swaps in
    a deliberately broken barrier — the detector's self-test.
    Everything is deterministic given ``--seed``.
    """
    from repro.check import (
        explore,
        replay_counterexample,
        run_schedule,
        shrink_decisions,
        witness_path,
        write_counterexample,
    )
    from repro.check.harness import explored_config
    from repro.experiments.configs import CONFIG_NAMES, check_configs
    from repro.workloads.splash2 import check_apps

    check_apps((args.app,))
    check_configs(args.configs or ())
    if args.replay:
        try:
            reproduced, result, expected = replay_counterexample(args.replay)
        except (OSError, ValueError) as exc:
            return _usage("cannot replay {}: {}".format(args.replay, exc))
        print("replay {}: {} recorded violation(s), {} observed".format(
            args.replay, len(expected), len(result.violations)
        ))
        for violation in result.violations:
            print("  " + violation.describe())
        print("REPRODUCED" if reproduced else
              "NOT REPRODUCED (violations differ from the artifact)")
        return EXIT_OK if reproduced else EXIT_VIOLATION

    fault_plan = None
    if args.plan_seed is not None:
        from repro.faults.plan import FaultPlan

        fault_plan = FaultPlan.sample(
            args.plan_seed, intensity=args.intensity
        )

    if args.mutant:
        from repro.sync.mutants import mutant_spec

        spec = mutant_spec(args.mutant)
        app, configs = spec.app, (spec.base_config,)
    else:
        app = args.app
        configs = tuple(args.configs or CONFIG_NAMES)

    # Each live simulation is explored once; every config reading it
    # (Oracle-Halt and Ideal read the Baseline) prints its line.
    explorations = {}
    for config in configs:
        live = explored_config(config)
        if live not in explorations:
            explorations[live] = explore(
                app, config, threads=args.threads, seed=args.seed,
                max_schedules=args.schedules, max_depth=args.depth,
                strategy=args.strategy, fault_plan=fault_plan,
                mutant=args.mutant,
            )
        exploration = explorations[live]
        print("check {}/{}/{}t seed {} [{}]: {} schedule(s), "
              "{} unique{}{}".format(
                  app, config, args.threads, args.seed, args.strategy,
                  exploration.schedules_run, exploration.unique_schedules,
                  " (budget exhausted)" if exploration.exhausted_budget
                  else "",
                  " — clean" if exploration.ok else "",
              ))
        if exploration.ok:
            continue

        # A schedule violated an oracle: shrink its decision string to
        # the deviations that matter, re-run the minimal schedule, and
        # export it as a replayable artifact.
        failure = exploration.first_failure
        for violation in failure.violations:
            print("  " + violation.describe())

        def still_fails(candidate):
            return not run_schedule(
                app, config, threads=args.threads, seed=args.seed,
                decisions=candidate, fault_plan=fault_plan,
                mutant=args.mutant,
            ).ok

        minimized, trials = shrink_decisions(
            failure.decisions, still_fails
        )
        minimal = run_schedule(
            app, config, threads=args.threads, seed=args.seed,
            decisions=minimized, fault_plan=fault_plan,
            mutant=args.mutant,
        )
        write_counterexample(
            args.counterexample, minimal, decisions=minimized,
            mutant=args.mutant, fault_plan=fault_plan,
            shrink_trials=trials,
        )
        print("shrunk {} -> {} decision(s) in {} trial(s)".format(
            len(failure.decisions), len(minimized), trials
        ))
        print("counterexample written to {} (witness trace: {})".format(
            args.counterexample, witness_path(args.counterexample)
        ))
        print("replay with: repro check --replay {}".format(
            args.counterexample
        ))
        return EXIT_VIOLATION
    return EXIT_OK


def _run_serve_command(args):
    """``repro serve``: block until shut down. The exit status tells a
    clean stop from a preemption with in-flight campaigns, exactly like
    a batch run."""
    from repro.serve.server import CampaignServer

    server = CampaignServer(
        host=args.host, port=args.port, pool_size=args.pool,
        cache=args.cache_dir, journal_root=args.journal_dir,
        idle_timeout_s=args.idle_timeout or None,
        max_connections=args.max_connections or None,
    )
    return server.run()


def _client(args):
    from repro.serve.client import ServeClient

    return ServeClient(host=args.host, port=args.port)


def _submit(args):
    """``repro submit`` prints the new campaign's run id *alone* on
    stdout so shell scripts can capture it (details go to stderr). The
    spec passes the server's own validation before any connection."""
    from repro.serve.campaigns import normalize_spec

    spec = {"threads": args.threads, "seed": args.seed}
    if args.apps:
        spec["apps"] = list(args.apps)
    if args.configs:
        spec["configs"] = list(args.configs)
    normalize_spec(spec)
    status = _client(args).submit(spec)
    print(
        "campaign {run_id}: {total} cells ({cached} cached, "
        "{deduped} deduped), state {state}".format(**status),
        file=sys.stderr,
    )
    print(status["run_id"])
    return EXIT_OK


def _status(args):
    import json

    print(json.dumps(_client(args).status(args.run_id), indent=2,
                     sort_keys=True))
    return EXIT_OK


def _cancel(args):
    status = _client(args).cancel(args.run_id)
    print("campaign {} {} after {} of {} cells".format(
        status["run_id"], status["state"],
        status["completed"], status["total"],
    ))
    return EXIT_OK


def _results(args):
    """``repro results``: wait for the terminal state, then fetch."""
    import json

    client = _client(args)
    status = client.wait(args.run_id, timeout=args.timeout)
    if status["state"] == "cancelled":
        print("campaign {} was cancelled".format(args.run_id),
              file=sys.stderr)
        return EXIT_VIOLATION
    document = client.results(args.run_id)
    text = json.dumps(document["records"], indent=2, sort_keys=True)
    if args.json:
        from repro.faults.storage import atomic_write_text

        atomic_write_text(args.json, text + "\n")
        print("results written to {}".format(args.json), file=sys.stderr)
    else:
        print(text)
    if document["failed"]:
        print("{} cell(s) failed".format(document["failed"]),
              file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def _shutdown(args):
    _client(args).shutdown()
    print("server stopping", file=sys.stderr)
    return EXIT_OK


def _run_fsck_command(args):
    """``repro fsck [RUN_ID] [--repair]``: audit journals and cache.

    Exit status: 0 when the tree is clean (or every issue was
    repaired), 1 when issues remain — unrepaired damage without
    ``--repair``, or unrepairable loss (a corrupt ``spec.json``) with
    it — and 2 for a malformed or unknown run id.
    """
    from repro.experiments.fsck import fsck_tree, render_fsck_report

    cache_dir = None
    if not args.no_cache:
        from repro.experiments.cache import default_cache_dir

        cache_dir = args.cache_dir or default_cache_dir()
    report = fsck_tree(
        journal_root=args.journal_dir, run_id=args.run_id,
        cache_dir=cache_dir, repair=args.repair,
    )
    _emit(render_fsck_report(report))
    return EXIT_OK if report.ok else EXIT_VIOLATION


def _run_cache_command(args):
    """``repro cache stats | prune | clear``: result-cache upkeep."""
    import json

    from repro.experiments.cache import ResultCache

    cache = ResultCache(args.cache_dir)
    if args.action == "prune":
        if args.max_entries is None or args.max_entries < 0:
            raise ConfigError(
                "repro cache prune needs --max-entries N (the entry "
                "budget to keep)"
            )
        evicted = cache.prune(args.max_entries)
        print("evicted {} entr{}".format(
            evicted, "y" if evicted == 1 else "ies"
        ), file=sys.stderr)
    elif args.action == "clear":
        removed = cache.clear()
        print("removed {} entr{}".format(
            removed, "y" if removed == 1 else "ies"
        ), file=sys.stderr)
    stats = dict(cache.stats())
    stats["entries"] = len(cache)
    stats["size_bytes"] = cache.size_bytes()
    stats["cache_dir"] = str(cache.cache_dir)
    print(json.dumps(stats, indent=2, sort_keys=True))
    return EXIT_OK


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        # A seeded storage fault plan in $REPRO_STORAGE_FAULTS applies
        # to any command — this is how CI runs a *subprocess* campaign
        # under injected ENOSPC/torn-write faults.
        from repro.faults.storage import install_from_env

        install_from_env()
        return args.handler(args)
    except ConfigError as exc:
        return _usage(str(exc))
    except ServeError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
