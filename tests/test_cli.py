"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


def _exit_status(argv):
    """``main``'s exit status, returned by a handler or raised by the
    parser."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestParser:
    def test_artifact_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_artifact_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure7"])

    def test_defaults(self):
        # --threads defaults per verb: 64 as in the paper, 8 for check
        # (exploration budgets scale with the choice-point count).
        args = build_parser().parse_args(["figure5"])
        assert args.threads == 64
        assert args.apps is None
        assert not args.chart
        assert build_parser().parse_args(["check"]).threads == 8
        # table3 reads no flag, so it takes none.
        args = build_parser().parse_args(["table3"])
        assert sorted(vars(args)) == ["handler", "verb"]

    def test_check_defaults(self):
        args = build_parser().parse_args(["check"])
        assert args.schedules == 64
        assert args.depth == 24
        assert args.strategy == "dfs"
        assert args.mutant is None
        assert args.replay is None
        assert args.counterexample == "counterexample.json"

    def test_cell_command_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.app == "fmm"
        assert args.config == "thrifty"
        assert args.trace is None
        assert args.metrics_csv is None


class TestMain:
    def test_table3_prints(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert "97.8%" in out

    def test_table1_prints_probes(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "L1 round trip" in out

    def test_table2_single_app(self, capsys):
        assert main(["table2", "--apps", "radiosity", "--threads", "16"]) == 0
        out = capsys.readouterr().out
        assert "radiosity" in out
        assert "volrend" not in out

    def test_figure5_with_exports(self, capsys, tmp_path):
        json_path = tmp_path / "m.json"
        csv_path = tmp_path / "m.csv"
        assert main([
            "figure5", "--apps", "radiosity", "--threads", "16",
            "--chart", "--json", str(json_path), "--csv", str(csv_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert "|" in out  # the chart
        records = json.loads(json_path.read_text())
        assert len(records) == 5
        assert csv_path.exists()

    def test_headline(self, capsys):
        assert main([
            "headline", "--apps", "radiosity", "--threads", "16",
        ]) == 0
        assert "headline" in capsys.readouterr().out

    def test_matrix_prints_engine_and_cache_counters(self, capsys):
        # The default cache is live (conftest points REPRO_CACHE_DIR at a
        # per-session temp dir), which routes through the engine and
        # surfaces its counters in the run summary.
        assert main([
            "figure5", "--apps", "radiosity", "--threads", "16",
        ]) == 0
        out = capsys.readouterr().out
        assert "engine & cache counters" in out
        assert "engine.submitted" in out
        assert "cache.misses" in out


class TestCellCommands:
    def test_run_prints_summary_and_metrics(self, capsys):
        assert main([
            "run", "--app", "fmm", "--config", "thrifty",
            "--threads", "8",
        ]) == 0
        out = capsys.readouterr().out
        assert "Cell summary" in out
        assert "events traced" in out
        assert "barrier.check_ins" in out
        assert "wake.total" in out

    def test_trace_prints_digest(self, capsys):
        assert main(["trace", "--app", "fmm", "--threads", "8"]) == 0
        out = capsys.readouterr().out
        assert "Trace digest" in out
        assert "barrier.check_in" in out
        assert "Mean BIT (ns)" in out

    def test_metrics_prints_tables(self, capsys):
        assert main([
            "metrics", "--app", "fmm", "--config", "thrifty-halt",
            "--threads", "8",
        ]) == 0
        out = capsys.readouterr().out
        assert "Telemetry metrics" in out
        assert "sleep.entries" in out
        assert "Histogram" in out

    def test_trace_export_is_loadable_json(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        csv_path = tmp_path / "metrics.csv"
        assert main([
            "run", "--app", "fmm", "--threads", "8",
            "--trace", str(trace_path), "--metrics-csv", str(csv_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "perfetto" in out.lower()
        document = json.loads(trace_path.read_text())
        assert document["traceEvents"]
        phases = {row["ph"] for row in document["traceEvents"]}
        assert {"M", "X", "i"} <= phases
        assert csv_path.read_text().startswith("type,name,field,value")

    def test_unknown_config_fails_cleanly(self, capsys):
        assert main(["run", "--config", "nonsense"]) == 2
        err = capsys.readouterr().err
        assert "unknown configuration" in err
        assert "thrifty" in err  # lists the valid choices


class TestUnknownApplication:
    """An unknown application is a usage error: exit 2, one stderr line
    naming the valid apps, and no journal, cache or run directory."""

    @pytest.mark.parametrize("argv", [
        ["figure5", "--apps", "nosuch", "--run-id", "r",
         "--journal-dir", "{runs}", "--cache-dir", "{cache}"],
        ["table2", "--apps", "fmm", "nosuch", "--cache-dir", "{cache}"],
        ["chaos", "--apps", "nosuch", "--plans", "1", "--run-id", "r",
         "--journal-dir", "{runs}"],
        ["run", "--app", "nosuch"],
        ["check", "--app", "nosuch", "--schedules", "1"],
    ], ids=lambda argv: argv[0])
    def test_exits_2_before_touching_storage(self, argv, capsys, tmp_path):
        # Each verb gets the storage flags it takes.
        journal = tmp_path / "runs"
        cache = tmp_path / "cache"
        argv = [arg.format(runs=journal, cache=cache) for arg in argv]
        assert main(argv + ["--threads", "8"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("unknown application(s) nosuch;")
        assert "fmm" in lines[0] and "ocean" in lines[0]
        assert not journal.exists()
        assert not cache.exists()

    def test_unknown_chaos_configuration_exits_2(self, capsys, tmp_path):
        assert main([
            "chaos", "--apps", "fmm", "--configs", "nosuch", "--plans", "1",
            "--threads", "8", "--run-id", "r",
            "--journal-dir", str(tmp_path / "runs"),
        ]) == 2
        assert "unknown configuration" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_cli_prints_no_traceback(self):
        import os
        import subprocess
        import sys

        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "figure5", "--apps", "nosuch",
             "--threads", "8", "--no-cache"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert completed.returncode == 2
        assert "Traceback" not in completed.stderr
        assert completed.stderr.count("\n") == 1


class TestUnknownConfiguration:
    """An unknown ``--configs`` name is a usage error in every verb that
    takes ``--configs``, and the verbs that always run all five
    configurations reject the flag itself: exit 2, one stderr line, and
    no journal, cache or simulation."""

    @pytest.mark.parametrize("argv", [
        ["figure5", "--apps", "fmm", "--run-id", "r",
         "--journal-dir", "{runs}", "--cache-dir", "{cache}"],
        ["headline", "--apps", "fmm", "--cache-dir", "{cache}"],
        ["table2", "--apps", "fmm", "--cache-dir", "{cache}"],
        ["chaos", "--apps", "fmm", "--plans", "1", "--run-id", "r",
         "--journal-dir", "{runs}"],
        ["check", "--schedules", "1"],
    ], ids=lambda argv: argv[0])
    def test_exits_2_before_touching_storage(
        self, argv, capsys, tmp_path, count_simulations,
    ):
        journal = tmp_path / "runs"
        cache = tmp_path / "cache"
        argv = [arg.format(runs=journal, cache=cache) for arg in argv]
        assert _exit_status(argv + [
            "--threads", "8", "--configs", "thrifty", "nosuch",
        ]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        if argv[0] in ("chaos", "check"):
            assert lines[0].startswith(
                "unknown configuration(s) 'nosuch';"
            )
            assert "oracle-halt" in lines[0]
        else:
            assert lines[0].startswith(
                "thrifty-barrier: error: unrecognized arguments: --configs"
            )
        assert not journal.exists()
        assert not cache.exists()
        assert count_simulations() == 0


class TestChaosCommand:
    def test_campaign_reports_and_exits_zero(self, capsys):
        assert main([
            "chaos", "--apps", "fmm", "--threads", "8",
            "--plans", "1", "--configs", "thrifty",
        ]) == 0
        out = capsys.readouterr().out
        assert "Chaos campaign" in out
        assert "OK:" in out
        assert "0 invariant violation(s)" in out


class TestExitCodes:
    """Every documented exit status, from repro.cli's docstring.

    0 = clean, 1 = campaign finished with violations, 2 = bad
    invocation, 3 = gracefully preempted (resumable).
    """

    def test_constants(self):
        from repro.cli import (
            EXIT_OK,
            EXIT_RESUMABLE,
            EXIT_USAGE,
            EXIT_VIOLATION,
        )

        assert (EXIT_OK, EXIT_VIOLATION, EXIT_USAGE, EXIT_RESUMABLE) == (
            0, 1, 2, 3,
        )

    def test_usage_error_exits_2(self, capsys):
        assert main(["run", "--config", "nonsense"]) == 2
        assert "unknown configuration" in capsys.readouterr().err

    def test_chaos_violations_exit_1(self, capsys, monkeypatch):
        import repro.faults.chaos as chaos_module
        from repro.faults.chaos import ChaosCampaignReport, ChaosCellReport
        from repro.faults.plan import FaultPlan

        class StubViolation:
            def describe(self):
                return "stub: a thread overslept"

        cell = ChaosCellReport(
            app="fmm", config="thrifty", plan=FaultPlan.sample(0),
            threads=8, violations=(StubViolation(),), injected={},
            late_wakes=0, releases=1, execution_time_ns=1,
            energy_joules=1.0,
        )
        report = ChaosCampaignReport(cells=[cell], planned=1)

        def fake_campaign(*args, **kwargs):
            return report

        monkeypatch.setattr(
            chaos_module, "run_chaos_campaign", fake_campaign,
        )
        assert main([
            "chaos", "--apps", "fmm", "--threads", "8", "--plans", "1",
        ]) == 1
        out = capsys.readouterr().out
        assert "FAILED" in out
        assert "stub: a thread overslept" in out

    def test_chaos_interrupt_exits_3_with_resume_hint(
        self, capsys, monkeypatch, tmp_path
    ):
        import repro.faults.chaos as chaos_module
        from repro.faults.chaos import ChaosCampaignReport

        report = ChaosCampaignReport(
            cells=[], planned=5, interrupted=True, run_id="soak",
        )
        monkeypatch.setattr(
            chaos_module, "run_chaos_campaign",
            lambda *args, **kwargs: report,
        )
        assert main([
            "chaos", "--apps", "fmm", "--threads", "8", "--plans", "1",
            "--run-id", "soak", "--journal-dir", str(tmp_path),
        ]) == 3
        out = capsys.readouterr().out
        assert "INTERRUPTED (resumable)" in out
        assert "repro chaos --resume soak" in out

    def test_chaos_interrupt_without_journal_suggests_run_id(
        self, capsys, monkeypatch
    ):
        import repro.faults.chaos as chaos_module
        from repro.faults.chaos import ChaosCampaignReport

        report = ChaosCampaignReport(cells=[], planned=5, interrupted=True)
        monkeypatch.setattr(
            chaos_module, "run_chaos_campaign",
            lambda *args, **kwargs: report,
        )
        assert main([
            "chaos", "--apps", "fmm", "--threads", "8", "--plans", "1",
        ]) == 3
        assert "--run-id" in capsys.readouterr().out


class TestChaosResume:
    def test_journaled_campaign_resumes_without_rerunning(
        self, capsys, tmp_path
    ):
        root = str(tmp_path / "runs")
        common = [
            "chaos", "--apps", "fmm", "--threads", "8", "--plans", "2",
            "--configs", "thrifty", "--journal-dir", root,
        ]
        assert main(common + ["--run-id", "round"]) == 0
        first = capsys.readouterr().out
        assert "restored from the run journal" not in first

        assert main(common + ["--resume", "round"]) == 0
        second = capsys.readouterr().out
        assert "2 cell(s) restored from the run journal" in second
        # Identical campaign summary either way (the restored cells are
        # the journaled payloads of the first run).
        def table(text):
            return [
                line for line in text.splitlines()
                if line.startswith(("fmm", "OK:"))
            ]

        assert table(first) == table(second)


class TestServeParser:
    def test_serve_commands_are_known(self):
        for argv in (["serve"], ["submit"], ["status", "c1"],
                     ["results", "c1"], ["cancel", "c1"], ["shutdown"],
                     ["cache"]):
            args = build_parser().parse_args(argv)
            assert args.verb == argv[0]

    def test_action_positional(self):
        args = build_parser().parse_args(["status", "c123"])
        assert args.run_id == "c123"
        args = build_parser().parse_args(["cache", "prune",
                                          "--max-entries", "10"])
        assert args.action == "prune"
        assert args.max_entries == 10

    def test_serve_flags(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--pool", "4", "--host", "0.0.0.0"]
        )
        assert args.port == 0
        assert args.pool == 4
        assert args.host == "0.0.0.0"


class TestServeCommands:
    def test_serve_refuses_no_cache(self, capsys):
        # Cross-campaign dedup and restart recovery are built on the
        # result cache, so serve has no --no-cache flag.
        assert _exit_status(["serve", "--no-cache"]) == 2
        assert "unrecognized arguments: --no-cache" in (
            capsys.readouterr().err
        )

    def test_client_without_server_exits_1(self, capsys):
        assert main(["status", "c1", "--port", "1"]) == 1
        assert "cannot reach" in capsys.readouterr().err

    def test_status_needs_an_id(self, capsys):
        assert _exit_status(["status", "--port", "1"]) == 2
        assert "CAMPAIGN_ID" in capsys.readouterr().err


class TestCacheCommand:
    def test_stats_default_action(self, capsys, tmp_path):
        assert main(["cache", "--cache-dir", str(tmp_path)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 0
        assert stats["cache_dir"] == str(tmp_path)

    def test_prune_and_clear(self, capsys, tmp_path):
        from repro.experiments.cache import ResultCache

        cache = ResultCache(str(tmp_path))
        for n in range(5):
            cache.put("{:x}abc".format(n), {"n": n})
        assert main(["cache", "prune", "--cache-dir", str(tmp_path),
                     "--max-entries", "3"]) == 0
        captured = capsys.readouterr()
        assert "evicted 2 entries" in captured.err
        assert json.loads(captured.out)["entries"] == 3
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "removed 3 entries" in captured.err
        assert json.loads(captured.out)["entries"] == 0

    def test_prune_needs_budget(self, capsys, tmp_path):
        assert main(["cache", "prune", "--cache-dir", str(tmp_path)]) == 2
        assert "--max-entries" in capsys.readouterr().err

    def test_unknown_action_is_usage_error(self, capsys, tmp_path):
        assert _exit_status(
            ["cache", "vacuum", "--cache-dir", str(tmp_path)]
        ) == 2
        assert "invalid choice: 'vacuum'" in capsys.readouterr().err

    def test_no_cache_flag_conflicts(self, capsys):
        assert _exit_status(["cache", "--no-cache"]) == 2


class TestVerbFlags:
    """Each verb takes only the flags it reads: any other flag, and a
    bad value, is a usage error with one stderr line."""

    @pytest.mark.parametrize("argv", [
        ["table3", "--mutant", "racy-check-in", "--repair", "--plans", "7",
         "--pool", "9"],
        ["chaos", "--apps", "fmm", "--threads", "8", "--plans", "1",
         "--pool", "9", "--schedules", "3"],
        ["figure5", "--apps", "fmm", "--threads", "8", "--configs",
         "thrifty"],
        ["run", "--cache-dir", "x"],
        ["status", "c1", "--json", "x"],
    ], ids=lambda argv: argv[0])
    def test_a_flag_the_verb_does_not_read_exits_2(
        self, argv, capsys, count_simulations,
    ):
        assert _exit_status(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert "unrecognized arguments: " in line
        assert count_simulations() == 0

    MISUSE = [
        (["figure5", "--resume", "nosuch"], "no journal for run 'nosuch'"),
        (["chaos", "--resume", "nosuch"], "no journal for run 'nosuch'"),
        (["figure5", "--apps", "fmm", "--threads", "8", "--workers", "-1",
          "--no-cache"], "--workers: must be at least 0, got -1"),
        (["figure5", "--apps", "fmm", "--threads", "128", "--no-cache"],
         "--threads: must be at most 64"),
        (["chaos", "--apps", "fmm", "--threads", "8", "--plans", "-1"],
         "at least one plan"),
        (["run", "--threads", "0"], "--threads: must be at least 1"),
        (["check", "--threads", "0"], "--threads: must be at least 1"),
        (["submit", "--apps", "nosuch", "--port", "1"],
         "unknown application(s) nosuch;"),
    ]

    @pytest.mark.parametrize(
        "argv, message", MISUSE, ids=[" ".join(argv) for argv, _ in MISUSE],
    )
    def test_misuse_exits_2_with_one_line(
        self, argv, message, capsys, tmp_path, count_simulations,
    ):
        if argv[0] in ("figure5", "chaos"):
            argv = argv + ["--journal-dir", str(tmp_path / "runs")]
        assert _exit_status(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert message in line
        assert count_simulations() == 0

    @pytest.mark.parametrize("bad", [
        ["--threads", "8", "--workers", "-1"],
        ["--threads", "128"],
    ], ids=lambda bad: bad[-2])
    def test_a_bad_value_leaves_no_journal_behind(self, bad, tmp_path):
        argv = [
            "figure5", "--apps", "fmm", "--run-id", "r",
            "--journal-dir", str(tmp_path / "J"),
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert _exit_status(argv + bad) == 2
        assert not (tmp_path / "J" / "r").exists()
        # The corrected command may reuse the run id.
        assert _exit_status(argv + ["--threads", "8"]) == 0
        assert (tmp_path / "J" / "r" / "spec.json").exists()

    def test_submit_validates_before_connecting(self, capsys, monkeypatch):
        from repro.serve.client import ServeClient

        def no_request(self, *args, **kwargs):
            raise AssertionError("submit opened a connection")

        monkeypatch.setattr(ServeClient, "_once", no_request)
        assert main([
            "submit", "--apps", "fmm", "--configs", "nosuch", "--port", "1",
        ]) == 2
        assert "unknown configuration(s) 'nosuch'" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("argv", [
        ["cache", "--cache-dir", "{tmp}"],
        ["status", "c1", "--port", "1"],
    ], ids=lambda argv: argv[0])
    def test_cache_and_client_verbs_load_no_simulator(self, argv, tmp_path):
        import os
        import subprocess
        import sys

        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        script = (
            "import sys\n"
            "from repro.cli import main\n"
            "status = main({!r})\n"
            "heavy = sorted(name for name in sys.modules if name == 'numpy'"
            " or name.startswith(('repro.sim', 'repro.workloads')))\n"
            "print(heavy)\n"
            "sys.exit(status)\n"
        ).format(argv)
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert completed.returncode in (0, 1), completed.stderr
        assert completed.stdout.splitlines()[-1] == "[]"
