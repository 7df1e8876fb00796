"""Tests for the table/figure generators and the text report."""

import pytest

from repro.experiments import figures, report, tables
from repro.experiments.runner import run_app, run_matrix

THREADS = 16


@pytest.fixture(scope="module")
def small_matrix():
    return {
        app: run_app(app, threads=THREADS)
        for app in ("fmm", "radiosity")
    }


class TestTable1:
    def test_probe_latencies_match_table1(self):
        rows, validation = tables.table1_rows()
        assert validation.l1_round_trip_ns == 2
        assert validation.l2_round_trip_ns == 2 + 12
        assert validation.memory_access_ns == 60 + 16
        assert validation.network_one_hop_ns == 48
        # Diameter of the 64-node hypercube: 6 hops.
        assert validation.network_diameter_ns == 2 * 16 + 6 * 16

    def test_rows_echo_configuration(self):
        rows, _ = tables.table1_rows()
        as_dict = dict(rows)
        assert "64 nodes" in as_dict["System size"]
        assert "hypercube" in as_dict["Network"]

    def test_render(self):
        rows, validation = tables.table1_rows()
        text = report.render_table1(rows, validation)
        assert "Table 1" in text and "L1 round trip" in text


class TestTable2:
    def test_rows_for_selected_apps(self):
        rows = tables.table2_rows(threads=THREADS, apps=("fmm",))
        assert len(rows) == 1
        app, size, paper, measured = rows[0]
        assert app == "fmm"
        assert "16k particles" in size
        assert paper == pytest.approx(16.56)
        assert 0 < measured < 100

    def test_reads_the_baselines_a_cached_matrix_computed(
        self, count_simulations, tmp_path
    ):
        cache = tmp_path / "cache"
        uncached = tables.table2_rows(threads=8, apps=("fmm",))
        run_matrix(apps=("fmm",), threads=8, cache=cache)
        simulated = count_simulations()
        rows = tables.table2_rows(threads=8, apps=("fmm",), cache=cache)
        assert count_simulations() == simulated
        assert rows == uncached

    def test_render(self):
        rows = tables.table2_rows(threads=THREADS, apps=("radiosity",))
        text = report.render_table2(rows)
        assert "Table 2" in text and "radiosity" in text


class TestTable3:
    def test_rows_match_paper(self):
        rows, tdp = tables.table3_rows()
        assert tdp > 0
        savings = [row[1] for row in rows]
        assert savings == pytest.approx([70.2, 79.2, 97.8])
        latencies = [row[2] for row in rows]
        assert latencies == pytest.approx([10.0, 15.0, 35.0])
        snoops = [row[3] for row in rows]
        assert snoops == ["Yes", "No", "No"]
        voltages = [row[4] for row in rows]
        assert voltages == ["No", "No", "Yes"]
        watts = [row[5] for row in rows]
        assert watts == sorted(watts, reverse=True)

    def test_render(self):
        rows, tdp = tables.table3_rows()
        text = report.render_table3(rows, tdp)
        assert "Table 3" in text and "TDPmax" in text


class TestFigure3:
    @pytest.fixture(scope="class")
    def rows(self):
        return figures.figure3_rows(threads=THREADS)

    def test_twelve_bars(self, rows):
        # 3 barriers x 4 consecutive iterations, as in the paper.
        assert len(rows) == 12
        assert {row.barrier_index for row in rows} == {1, 2, 3}

    def test_compute_plus_bst_equals_bit(self, rows):
        for row in rows:
            assert row.compute_norm + row.bst_norm == pytest.approx(
                row.bit_norm
            )

    def test_per_barrier_bit_stable_across_iterations(self, rows):
        # The paper's observation: same-barrier BIT varies much less
        # than BIT across different barriers.
        by_barrier = {}
        for row in rows:
            by_barrier.setdefault(row.barrier_index, []).append(row.bit_norm)
        within = max(
            max(vals) - min(vals) for vals in by_barrier.values()
        )
        means = [
            sum(vals) / len(vals) for vals in by_barrier.values()
        ]
        across = max(means) - min(means)
        assert within < 0.5 * across

    def test_barrier1_is_longest(self, rows):
        means = {}
        for row in rows:
            means.setdefault(row.barrier_index, []).append(row.bit_norm)
        assert sum(means[1]) > sum(means[3]) > sum(means[2])

    def test_render(self, rows):
        text = report.render_figure3(rows)
        assert "Figure 3" in text and "BST" in text


class TestFigures56:
    def test_figure5_rows_complete(self, small_matrix):
        rows = figures.figure5_rows(small_matrix)
        assert len(rows) == 2 * 5
        for row in rows:
            assert row["total"] == pytest.approx(
                sum(row[s] for s in ("compute", "spin", "transition",
                                     "sleep")),
            )

    def test_figure5_baseline_rows_are_100(self, small_matrix):
        for row in figures.figure5_rows(small_matrix):
            if row["config"] == "baseline":
                assert row["total"] == pytest.approx(100.0)

    def test_figure6_has_wall_clock(self, small_matrix):
        rows = figures.figure6_rows(small_matrix)
        for row in rows:
            assert "wall" in row
            if row["config"] in ("baseline", "oracle-halt", "ideal"):
                assert row["wall"] == pytest.approx(100.0)

    def test_renders(self, small_matrix):
        text5 = report.render_figure5(figures.figure5_rows(small_matrix))
        text6 = report.render_figure6(figures.figure6_rows(small_matrix))
        assert "Figure 5" in text5 and "Figure 6" in text6
        assert "fmm" in text5
        headline = report.render_headline(small_matrix)
        assert "headline" in headline

    def test_missing_baseline_rejected(self, small_matrix):
        from repro.errors import ConfigError

        broken = {
            "fmm": {
                k: v for k, v in small_matrix["fmm"].items()
                if k != "baseline"
            }
        }
        with pytest.raises(ConfigError):
            figures.figure5_rows(broken)


class TestRenderTable:
    def test_alignment_and_title(self):
        text = report.render_table(
            ("A", "Long header"),
            [("x", 1), ("longer", 22)],
            title="T",
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert len(set(len(line.rstrip()) for line in lines[1:])) >= 1

    def test_empty_rows(self):
        text = report.render_table(("A",), [])
        assert "A" in text
