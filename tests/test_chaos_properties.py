"""Property-based chaos: any seeded plan leaves every invariant intact.

The paper's robustness argument (Sections 3.3-3.4) is that the thrifty
barrier composes redundant wake-up mechanisms, so timing faults cost
energy and lateness but never correctness. This suite holds the whole
stack to that across a sweep of sampled fault plans: every barrier
releases, no safety/liveness/accounting invariant breaks, and identical
(seed, plan, configuration) triples reproduce bit-for-bit.
"""

import pytest

from repro.errors import ConfigError
from repro.experiments.configs import CONFIG_NAMES
from repro.experiments.journal import RunJournal
from repro.faults.chaos import (
    DEGRADED_THRIFTY,
    chaos_report_as_dict,
    run_chaos_campaign,
    run_chaos_cell,
    sample_plans,
)

#: ~50 sampled plans, each paired with a configuration round-robin so
#: all five configurations face many distinct plans.
PLANS = sample_plans(50, seed=11)
CELLS = [
    (plan, CONFIG_NAMES[index % len(CONFIG_NAMES)])
    for index, plan in enumerate(PLANS)
]


class TestChaosProperties:
    @pytest.mark.parametrize(
        "plan, config", CELLS,
        ids=["{}-{}".format(p.name, c) for p, c in CELLS],
    )
    def test_no_violations_and_eventual_release(self, plan, config):
        report = run_chaos_cell("fmm", config, plan, threads=8)
        assert report.violations == ()
        assert report.releases > 0

    def test_cell_reports_are_reproducible(self):
        plan = PLANS[0]

        def cell():
            return run_chaos_cell("fmm", "thrifty", plan, threads=8)

        first, second = cell(), cell()
        assert first.injected == second.injected
        assert first.late_wakes == second.late_wakes
        assert first.releases == second.releases
        assert first.execution_time_ns == second.execution_time_ns
        assert first.energy_joules == second.energy_joules

    def test_sampled_plans_are_deterministic(self):
        assert sample_plans(5, seed=11) == sample_plans(5, seed=11)
        assert sample_plans(5, seed=11) != sample_plans(5, seed=12)


class TestChaosCampaign:
    def test_full_matrix_campaign(self):
        report = run_chaos_campaign(
            sample_plans(2, seed=11), apps=("fmm",), threads=8,
        )
        assert len(report.cells) == 2 * len(CONFIG_NAMES)
        assert report.ok
        assert report.total_injected > 0
        # Every cell carries deltas against its clean reference.
        assert all(cell.energy_delta is not None for cell in report.cells)
        assert all(cell.time_delta_ns is not None for cell in report.cells)

    def test_clean_references_share_one_baseline(self, count_simulations):
        report = run_chaos_campaign(
            sample_plans(1, seed=11), apps=("fmm",), threads=8,
        )
        assert len(report.cells) == len(CONFIG_NAMES)
        # Three clean simulations (Oracle-Halt and Ideal replay the
        # Baseline) plus three perturbed ones: the plan's Baseline,
        # Oracle-Halt and Ideal cells read one perturbed Baseline.
        assert count_simulations() == 3 + 3

    def test_journaled_rerun_restores_every_cell(
        self, tmp_path, count_simulations
    ):
        plans = sample_plans(1, seed=11)
        journal = RunJournal.create({"chaos": 1}, run_id="c", root=tmp_path)
        first = run_chaos_campaign(
            plans, apps=("fmm",), threads=8, journal=journal,
        )
        simulated = count_simulations()
        second = run_chaos_campaign(
            plans, apps=("fmm",), threads=8,
            journal=RunJournal.open("c", root=tmp_path),
        )
        assert count_simulations() == simulated
        document = chaos_report_as_dict(second)
        assert document["resumed_cells"] == document["planned"]
        assert dict(document, resumed_cells=0) == chaos_report_as_dict(first)
        # The run's store holds every cell report and clean reference.
        assert len(journal.result_store()) == 2 * len(CONFIG_NAMES)

    def test_unknown_config_rejected(self):
        with pytest.raises(ConfigError):
            run_chaos_campaign(
                sample_plans(1), configs=("nope",), threads=8
            )

    def test_sample_plans_validates_count(self):
        with pytest.raises(ConfigError):
            sample_plans(0)

    def test_degraded_thrifty_overrides_are_active(self):
        # The campaign runs thrifty configurations with graceful
        # degradation on; the knob set must stay in sync with the
        # ThriftyConfig fields it overrides.
        from repro.config import ThriftyConfig

        ThriftyConfig(**DEGRADED_THRIFTY)  # must construct cleanly
        assert DEGRADED_THRIFTY["probation_episodes"] > 0
        assert DEGRADED_THRIFTY["fallback_spin_then_sleep"] is True


class _FlipAfterSettled:
    """A preemption guard whose ``requested`` turns true once the engine
    has settled ``after`` cells."""

    reason = "test"
    drain_deadline_s = 60.0

    def __init__(self, after):
        self.after = after
        self.settled = 0

    @property
    def requested(self):
        return self.settled >= self.after


class TestChaosOnTheEngine:
    """Chaos cells are engine cells: a plan's Baseline, Oracle-Halt and
    Ideal cells read one perturbed Baseline, and the engine's workers,
    store and preemption drain serve the campaign."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_smoke_campaign_costs_twelve_simulations(
        self, workers, count_simulations
    ):
        # Per app: 3 clean simulations, then per plan one perturbed
        # Baseline (its B/O/I cells) plus Thrifty-Halt and Thrifty.
        report = run_chaos_campaign(
            sample_plans(3, seed=7), apps=("fmm",), threads=16, seed=7,
            workers=workers,
        )
        assert len(report.cells) == 15
        assert report.ok
        assert count_simulations() == 12

    @pytest.mark.parametrize("workers", [1, 2])
    def test_two_app_campaign_costs_eighteen_simulations(
        self, workers, count_simulations
    ):
        report = run_chaos_campaign(
            sample_plans(2, seed=11), apps=("fmm", "radix"), threads=8,
            workers=workers,
        )
        assert [(cell.app, cell.config) for cell in report.cells] == [
            (app, config)
            for app in ("fmm", "radix")
            for config in CONFIG_NAMES
            for _ in range(2)
        ]
        assert count_simulations() == 2 * (3 + 2 * 3)

    def test_report_is_the_same_at_any_worker_count(self):
        plans = sample_plans(2, seed=11)
        serial, parallel = (
            chaos_report_as_dict(run_chaos_campaign(
                plans, apps=("fmm", "radix"), threads=8, workers=workers,
            ))
            for workers in (1, 2)
        )
        assert serial == parallel

    def test_shared_baseline_audit_matches_a_cell_run_alone(self):
        # The derived cells of one plan read the Baseline's simulation
        # and audit: each matches the same cell run on its own.
        plan = sample_plans(1, seed=11)[0]
        report = run_chaos_campaign(
            [plan], apps=("fmm",), threads=8,
            configs=("baseline", "oracle-halt", "ideal"),
        )
        for cell in report.cells:
            alone = run_chaos_cell("fmm", cell.config, plan, threads=8)
            assert (cell.violations, cell.injected, cell.late_wakes,
                    cell.releases, cell.execution_time_ns,
                    cell.energy_joules) == (
                alone.violations, alone.injected, alone.late_wakes,
                alone.releases, alone.execution_time_ns,
                alone.energy_joules,
            )

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("after", [1, 6])
    def test_preempted_campaign_resumes_to_the_full_report(
        self, tmp_path, monkeypatch, workers, after
    ):
        from repro.experiments.parallel import ExperimentEngine

        plans = sample_plans(2, seed=11)
        campaign = dict(apps=("fmm",), threads=8, workers=workers)
        full = chaos_report_as_dict(run_chaos_campaign(plans, **campaign))

        guard = _FlipAfterSettled(after)
        settle = ExperimentEngine._settle

        def counting(self, queue, cells, event, results, use_cache):
            settle(self, queue, cells, event, results, use_cache)
            guard.settled += event[0] == "result"

        monkeypatch.setattr(ExperimentEngine, "_settle", counting)
        journal = RunJournal.create({"chaos": 1}, run_id="p", root=tmp_path)
        partial = run_chaos_campaign(
            plans, journal=journal, preemption=guard, **campaign
        )
        assert partial.interrupted
        assert partial.run_id == "p"
        assert len(partial.cells) < partial.planned == 10
        done = chaos_report_as_dict(partial)["cells"]
        assert done == [cell for cell in full["cells"] if cell in done]

        monkeypatch.setattr(ExperimentEngine, "_settle", settle)
        resumed = run_chaos_campaign(
            plans, journal=RunJournal.open("p", root=tmp_path), **campaign
        )
        assert not resumed.interrupted
        assert resumed.resumed_cells == len(partial.cells)
        assert dict(
            chaos_report_as_dict(resumed), resumed_cells=0, run_id=""
        ) == full

    def test_no_op_plans_never_share_a_key_with_clean_references(
        self, tmp_path
    ):
        from repro.experiments.parallel import ExperimentCell, _unit_key
        from repro.faults.chaos import ChaosCell, _overrides_for

        plans = sample_plans(2, seed=11, intensity=0)
        assert all(plan.is_noop for plan in plans)
        references = [
            ExperimentCell.make(
                "fmm", config, threads=8, **_overrides_for(config)
            )
            for config in CONFIG_NAMES
        ]
        cells = [
            ChaosCell(app="fmm", config=config, threads=8, plan=plan)
            for config in CONFIG_NAMES
            for plan in plans
        ]
        keys = {cell.key() for cell in references + cells}
        assert len(keys) == len(references) + len(cells)
        units = {_unit_key(cell) for cell in references} - {None}
        assert units.isdisjoint(_unit_key(cell) for cell in cells)

        journal = RunJournal.create({"chaos": 0}, run_id="z", root=tmp_path)
        report = run_chaos_campaign(
            plans, apps=("fmm",), threads=8, journal=journal,
        )
        assert len(journal.result_store()) == len(keys)
        # Without faults a cell costs what its clean reference does.
        assert {cell.energy_delta for cell in report.cells} == {0.0}
        assert {cell.time_delta_ns for cell in report.cells} == {0}

    def test_corrupt_cell_is_re_run_not_counted_as_restored(
        self, tmp_path, count_simulations
    ):
        from repro.faults.chaos import ChaosCell

        plans = sample_plans(1, seed=11)
        campaign = dict(apps=("fmm",), configs=("baseline", "thrifty"),
                        threads=4)
        first = run_chaos_campaign(
            plans, journal=RunJournal.create({}, run_id="k", root=tmp_path),
            **campaign
        )
        journal = RunJournal.open("k", root=tmp_path)
        cell = ChaosCell(app="fmm", config="thrifty", threads=4,
                         plan=plans[0])
        entry = journal.result_store()._entry_path(cell.key())
        entry.write_bytes(entry.read_bytes()[:10])
        simulated = count_simulations()
        resumed = run_chaos_campaign(plans, journal=journal, **campaign)
        assert count_simulations() - simulated == 1
        assert resumed.resumed_cells == 1
        assert chaos_report_as_dict(resumed)["cells"] == \
            chaos_report_as_dict(first)["cells"]
