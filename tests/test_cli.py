"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_artifact_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_artifact_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure7"])

    def test_defaults(self):
        args = build_parser().parse_args(["table3"])
        # --threads defaults per command (64 for experiments, 8 for
        # check); the parser leaves it None and main() resolves it.
        assert args.threads is None
        assert args.apps is None
        assert not args.chart

    def test_check_defaults(self):
        args = build_parser().parse_args(["check"])
        assert args.schedules == 64
        assert args.depth == 24
        assert args.strategy == "dfs"
        assert args.mutant is None
        assert args.replay is None
        assert args.counterexample == "counterexample.json"
        assert not args.fail_fast

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
        for command in ("serve", "submit", "status", "results", "cancel",
                        "shutdown", "cache"):
            args = build_parser().parse_args([command])
            assert args.artifact == command

    def test_action_positional(self):
        args = build_parser().parse_args(["status", "c123"])
        assert args.action == "c123"
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
        assert main(["serve", "--no-cache"]) == 2
        assert "result cache" in capsys.readouterr().err

    def test_client_without_server_exits_1(self, capsys):
        assert main(["status", "c1", "--port", "1"]) == 1
        assert "cannot reach" in capsys.readouterr().err

    def test_status_needs_an_id(self, capsys):
        assert main(["status", "--port", "1"]) == 2
        assert "campaign id" in capsys.readouterr().err


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
        assert main(["cache", "vacuum", "--cache-dir", str(tmp_path)]) == 2
        assert "unknown cache action" in capsys.readouterr().err

    def test_no_cache_flag_conflicts(self, capsys):
        assert main(["cache", "--no-cache"]) == 2
