"""``repro check``: schedule exploration, oracles, shrinking, replay.

The contract under test, end to end:

* the two protocol oracles fire on exactly the event shapes they
  claim to catch (synthetic streams);
* exploration is deterministic — same cell, seed, and budgets produce
  an identical report;
* every registered mutant in :mod:`repro.sync.mutants` is caught
  within a small budget, with the oracle(s) its spec promises, while
  all five paper configurations stay clean under the same budget;
* a counterexample shrinks to a minimal decision string, exports as a
  replayable artifact plus a Perfetto witness, and ``--replay``
  reproduces the recorded violations exactly;
* exploration composes with a :class:`~repro.faults.plan.FaultPlan`;
* the CLI wires it all together with the documented exit codes.
"""

import json

import pytest

from repro.check import (
    NO_LOST_WAKEUP,
    RELEASE_SAFETY,
    ScheduleDriver,
    check_no_lost_wakeup,
    check_release_safety,
    explore,
    load_counterexample,
    replay_counterexample,
    run_schedule,
    shrink_decisions,
    witness_path,
    write_counterexample,
)
from repro.cli import main
from repro.errors import ConfigError
from repro.experiments.configs import CONFIG_NAMES
from repro.faults.plan import FaultPlan
from repro.sync.mutants import MUTANT_NAMES, mutant_spec
from repro.telemetry.events import (
    BarrierCheckIn,
    BarrierRelease,
    SleepEnter,
    SleepExit,
)

#: Small cell every live exploration here runs on (seconds, not
#: minutes: budgets scale with choice-point count).
SMALL = dict(threads=4, seed=1)


def _enter(ts, thread):
    return SleepEnter(ts=ts, thread=thread, state="sleep2", flush_lines=4)


def _exit(ts, thread):
    return SleepExit(ts=ts, thread=thread, state="sleep2", entered_ts=0,
                     resident_ns=ts, flush_ns=10, flushed_lines=4)


def _check_in(ts, thread, sequence=0, is_last=False):
    return BarrierCheckIn(ts=ts, thread=thread, pc="b", sequence=sequence,
                          is_last=is_last)


def _release(ts, thread, sequence=0):
    return BarrierRelease(ts=ts, thread=thread, pc="b", sequence=sequence,
                          bit_ns=None)


class TestNoLostWakeupOracle:
    def test_matched_sleep_is_clean(self):
        events = [_enter(10, 1), _exit(50, 1)]
        assert check_no_lost_wakeup(events) == []

    def test_open_sleep_is_a_violation(self):
        events = [_enter(10, 1), _enter(20, 2), _exit(50, 2)]
        (violation,) = check_no_lost_wakeup(events)
        assert violation.invariant == NO_LOST_WAKEUP
        assert "thread 1" in violation.message
        assert violation.first_index == 0  # points at the SleepEnter

    def test_stuck_threads_are_a_violation_without_sleep_events(self):
        events = [_check_in(10, 0)]
        (violation,) = check_no_lost_wakeup(
            events, stuck_threads=("thread[3]", "thread[5]")
        )
        assert violation.invariant == NO_LOST_WAKEUP
        assert "thread[3]" in violation.message

    def test_reentered_sleep_tracks_the_latest_enter(self):
        events = [_enter(10, 1), _exit(20, 1), _enter(30, 1)]
        (violation,) = check_no_lost_wakeup(events)
        assert "at 30" in violation.message


class TestReleaseSafetyOracle:
    def test_full_episode_is_clean(self):
        events = [_check_in(10, 0), _check_in(20, 1, is_last=True),
                  _release(25, 1)]
        assert check_release_safety(events, n_threads=2) == []

    def test_arrival_after_release_is_a_violation(self):
        events = [_check_in(10, 0), _release(25, 0), _check_in(30, 1)]
        (violation,) = check_release_safety(events, n_threads=2)
        assert violation.invariant == RELEASE_SAFETY
        assert "before thread 1 arrived" in violation.message

    def test_short_arrival_count_is_a_violation(self):
        events = [_check_in(10, 0), _release(25, 0)]
        (violation,) = check_release_safety(events, n_threads=4)
        assert "only 1 of 4 arrivals" in violation.message

    def test_unreleased_episode_is_left_to_liveness(self):
        events = [_check_in(10, 0)]
        assert check_release_safety(events, n_threads=4) == []


class TestRunSchedule:
    def test_default_schedule_is_clean_and_all_fifo(self):
        result = run_schedule("fmm", "baseline", **SMALL)
        assert result.ok
        assert result.stuck_threads == ()
        assert result.decisions  # choice points were consulted
        assert all(d == 0 for d in result.decisions)
        assert all(a >= 2 for a in result.arities)

    def test_replaying_the_realized_trace_is_bit_identical(self):
        first = run_schedule("fmm", "baseline", **SMALL)
        again = run_schedule(
            "fmm", "baseline", decisions=first.decisions, **SMALL
        )
        assert again.trace == first.trace
        assert again.executed == first.executed
        assert again.execution_time_ns == first.execution_time_ns
        assert [repr(e) for e in again.events] == [
            repr(e) for e in first.events
        ]

    def test_derived_config_explores_its_baseline(self):
        result = run_schedule("fmm", "ideal", **SMALL)
        assert result.ok

    def test_unknown_config_raises(self):
        with pytest.raises(ConfigError, match="unknown configuration"):
            run_schedule("fmm", "no-such-config", **SMALL)

    def test_driver_trace_reset_between_runs(self):
        driver = ScheduleDriver(())
        run_schedule("fmm", "baseline", tie_breaker=driver, **SMALL)
        first_len = len(driver.decisions)
        run_schedule("fmm", "baseline", tie_breaker=driver, **SMALL)
        assert len(driver.decisions) == first_len


class TestExplorerDeterminism:
    @pytest.mark.parametrize("strategy", ["dfs", "random"])
    def test_same_seed_same_report(self, strategy):
        def snapshot():
            report = explore(
                "fmm", "baseline", max_schedules=5, max_depth=6,
                strategy=strategy, **SMALL
            )
            return (
                report.schedules_run, report.unique_schedules,
                report.exhausted_budget,
                tuple(f.decisions for f in report.failures),
            )

        assert snapshot() == snapshot()

    def test_dfs_visits_the_default_schedule_first(self):
        report = explore(
            "fmm", "baseline", max_schedules=1, max_depth=4, **SMALL
        )
        assert report.schedules_run == 1
        assert report.ok

    def test_bad_strategy_and_budgets_raise(self):
        with pytest.raises(ConfigError, match="unknown strategy"):
            explore("fmm", "baseline", strategy="bogus", **SMALL)
        with pytest.raises(ConfigError, match="max_schedules"):
            explore("fmm", "baseline", max_schedules=0, **SMALL)
        with pytest.raises(ConfigError, match="max_depth"):
            explore("fmm", "baseline", max_depth=0, **SMALL)


class TestCleanConfigs:
    @pytest.mark.parametrize("config", CONFIG_NAMES)
    def test_paper_config_is_clean_under_exploration(self, config):
        report = explore(
            "fmm", config, max_schedules=4, max_depth=6, **SMALL
        )
        assert report.ok, [
            v.describe() for f in report.failures for v in f.violations
        ]

    def test_random_walks_stay_clean_on_baseline(self):
        report = explore(
            "fmm", "baseline", max_schedules=4, strategy="random", **SMALL
        )
        assert report.ok


class TestMutantsAreCaught:
    @pytest.mark.parametrize("name", MUTANT_NAMES)
    def test_mutant_is_caught_within_budget(self, name):
        spec = mutant_spec(name)
        report = explore(
            spec.app, spec.base_config, threads=spec.threads,
            seed=spec.seed, max_schedules=20, max_depth=16, mutant=name,
        )
        assert not report.ok, "mutant {} escaped exploration".format(name)
        caught = {
            v.invariant
            for f in report.failures
            for v in f.violations
        }
        for oracle in spec.expected:
            assert oracle in caught, (
                "mutant {} was caught, but not by the promised {} "
                "oracle (got {})".format(name, oracle, sorted(caught))
            )

    def test_unknown_mutant_raises(self):
        with pytest.raises(ConfigError, match="unknown mutant"):
            run_schedule("fmm", "baseline", mutant="no-such-bug", **SMALL)


class TestShrink:
    def test_strips_fifo_tail_without_spending_trials(self):
        minimized, trials = shrink_decisions(
            (0, 0, 0, 0), lambda candidate: True
        )
        assert minimized == ()
        assert trials == 0

    def test_finds_the_single_essential_deviation(self):
        # Failure iff position 5 deviates; everything else is noise.
        def still_fails(candidate):
            return len(candidate) > 5 and candidate[5] == 2

        minimized, trials = shrink_decisions(
            (1, 0, 3, 0, 1, 2, 0, 4, 1), still_fails
        )
        assert minimized == (0, 0, 0, 0, 0, 2)
        assert trials <= 64

    def test_budget_bounds_the_simulation_count(self):
        calls = []

        def still_fails(candidate):
            calls.append(candidate)
            return True

        shrink_decisions(tuple(range(1, 40)), still_fails, max_trials=7)
        assert len(calls) <= 7


class TestArtifactRoundTrip:
    def _counterexample(self, tmp_path, name="off-by-one-release"):
        spec = mutant_spec(name)
        result = run_schedule(
            spec.app, spec.base_config, threads=spec.threads,
            seed=spec.seed, mutant=name,
        )
        assert not result.ok
        path = str(tmp_path / "cx.json")
        write_counterexample(path, result, decisions=(), mutant=name)
        return path, result

    def test_artifact_replays_exactly(self, tmp_path):
        path, result = self._counterexample(tmp_path)
        reproduced, replayed, expected = replay_counterexample(path)
        assert reproduced
        assert [(v.invariant, v.message) for v in replayed.violations] \
            == expected

    def test_artifact_carries_violation_windows(self, tmp_path):
        path, _result = self._counterexample(tmp_path)
        payload = load_counterexample(path)
        violation = payload["violations"][0]
        assert violation["window_first_index"] is not None
        assert violation["window_last_index"] is not None
        assert violation["window_first_ts"] is not None

    def test_witness_trace_is_written_beside_the_artifact(self, tmp_path):
        path, _result = self._counterexample(tmp_path)
        with open(witness_path(path)) as handle:
            trace = json.load(handle)
        assert trace["traceEvents"]

    def test_tampered_artifact_does_not_reproduce(self, tmp_path):
        path, _result = self._counterexample(tmp_path)
        payload = load_counterexample(path)
        payload["violation_keys"] = payload["violation_keys"][:1]
        with open(path, "w") as handle:
            json.dump(payload, handle)
        reproduced, _replayed, _expected = replay_counterexample(path)
        assert not reproduced

    def test_wrong_kind_is_rejected(self, tmp_path):
        path = tmp_path / "not-an-artifact.json"
        path.write_text('{"kind": "something-else"}')
        with pytest.raises(ConfigError, match="not a"):
            load_counterexample(str(path))


class TestFaultPlanComposition:
    def test_exploration_composes_with_a_sampled_plan(self):
        plan = FaultPlan.sample(3)
        report = explore(
            "fmm", "thrifty", max_schedules=3, max_depth=4,
            fault_plan=plan, **SMALL
        )
        assert report.ok, [
            v.describe() for f in report.failures for v in f.violations
        ]

    def test_plan_rides_through_the_artifact(self, tmp_path):
        plan = FaultPlan.sample(3)
        result = run_schedule("fmm", "baseline", fault_plan=plan, **SMALL)
        path = str(tmp_path / "cx.json")
        write_counterexample(path, result, fault_plan=plan)
        payload = load_counterexample(path)
        assert payload["fault_plan"] == plan.as_dict()


class TestCheckCli:
    def test_clean_sweep_exits_zero(self, capsys):
        status = main([
            "check", "--threads", "4", "--schedules", "2", "--depth", "4",
            "--configs", "baseline",
        ])
        assert status == 0
        out = capsys.readouterr().out
        assert "clean" in out

    def test_each_live_simulation_is_explored_once(
        self, capsys, monkeypatch
    ):
        # Oracle-Halt and Ideal explore the Baseline simulation they
        # replay: five configs cost three explorations, and every config
        # still prints its line.
        from repro.check import explorer

        calls = []
        run = explorer.run_schedule

        def counted(**kwargs):
            calls.append(kwargs["config"])
            return run(**kwargs)

        monkeypatch.setattr(explorer, "run_schedule", counted)
        assert main(["check", "--schedules", "16", "--depth", "12"]) == 0
        assert len(calls) == 48
        assert sorted(set(calls)) == ["baseline", "thrifty", "thrifty-halt"]
        assert capsys.readouterr().out.splitlines() == [
            "check fmm/{}/8t seed 1 [dfs]: 16 schedule(s), 16 unique "
            "(budget exhausted) — clean".format(config)
            for config in CONFIG_NAMES
        ]

    def test_mutant_exits_one_and_writes_replayable_artifact(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        status = main([
            "check", "--mutant", "off-by-one-release",
            "--schedules", "8", "--depth", "8",
        ])
        assert status == 1
        out = capsys.readouterr().out
        assert "counterexample written to" in out
        assert (tmp_path / "counterexample.json").is_file()
        assert (tmp_path / "counterexample-witness.json").is_file()

        status = main(["check", "--replay", "counterexample.json"])
        assert status == 0
        assert "REPRODUCED" in capsys.readouterr().out

    def test_unknown_mutant_is_a_usage_error(self, capsys):
        assert main(["check", "--mutant", "bogus"]) == 2
        assert "unknown mutant" in capsys.readouterr().err

    def test_unknown_config_is_a_usage_error(self, capsys):
        assert main(["check", "--configs", "bogus"]) == 2
        assert "unknown configuration" in capsys.readouterr().err

    def test_missing_replay_file_is_a_usage_error(self, tmp_path, capsys):
        assert main([
            "check", "--replay", str(tmp_path / "missing.json"),
        ]) == 2


class TestChaosCliSatellites:
    def test_fail_fast_stops_at_the_first_violating_cell(self):
        from repro.faults.chaos import run_chaos_campaign, sample_plans

        # An absurd liveness deadline makes every cell violate, so a
        # fail-fast campaign must stop after exactly one.
        plans = sample_plans(2, seed=1)
        report = run_chaos_campaign(
            plans, apps=("fmm",), configs=("baseline", "thrifty"),
            threads=4, seed=1, deadline_ns=1, fail_fast=True,
        )
        assert report.stopped_early
        assert len(report.cells) == 1
        assert report.cells[0].violations

        full = run_chaos_campaign(
            plans, apps=("fmm",), configs=("baseline", "thrifty"),
            threads=4, seed=1, deadline_ns=1,
        )
        assert not full.stopped_early
        assert len(full.cells) == 4

    def test_chaos_json_report_embeds_violation_windows(
        self, tmp_path, capsys
    ):
        path = tmp_path / "chaos.json"
        status = main([
            "chaos", "--plans", "1", "--threads", "4",
            "--configs", "baseline", "--json", str(path),
        ])
        assert status == 0
        with open(path) as handle:
            report = json.load(handle)
        assert report["kind"] == "chaos-campaign"
        assert report["ok"] is True
        (cell,) = report["cells"]
        assert cell["app"] == "fmm"
        assert cell["violations"] == []
        assert "window_first_index" not in json.dumps(cell["violations"])

    def test_chaos_json_windows_point_into_the_stream(self, tmp_path):
        from repro.faults.chaos import (
            chaos_report_as_dict,
            run_chaos_campaign,
            sample_plans,
        )

        report = run_chaos_campaign(
            sample_plans(1, seed=1), apps=("fmm",),
            configs=("baseline",), threads=4, seed=1, deadline_ns=1,
        )
        document = chaos_report_as_dict(report)
        (cell,) = document["cells"]
        assert cell["violations"], "deadline_ns=1 must violate liveness"
        for violation in cell["violations"]:
            assert violation["window_first_index"] is not None
            assert violation["window_last_index"] is not None
            assert (violation["window_first_index"]
                    <= violation["window_last_index"])
            assert violation["window_first_ts"] is not None
        json.dumps(document)  # fully serializable

    def test_fail_fast_cli_exits_violation(self, capsys, monkeypatch):
        from repro.faults import chaos as chaos_module

        # Shrink the campaign's liveness deadline so the CLI path
        # itself trips the oracle in the first cell and stops early.
        real = chaos_module.run_chaos_campaign

        def tiny_deadline_campaign(*args, **kwargs):
            kwargs["deadline_ns"] = 1
            return real(*args, **kwargs)

        monkeypatch.setattr(
            chaos_module, "run_chaos_campaign", tiny_deadline_campaign
        )
        status = main([
            "chaos", "--plans", "2", "--threads", "4",
            "--configs", "baseline", "thrifty", "--fail-fast",
        ])
        assert status == 1
        out = capsys.readouterr().out
        assert "STOPPED EARLY" in out
