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
        # Baseline) plus one perturbed simulation per cell.
        assert count_simulations() == 3 + len(CONFIG_NAMES)

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
