"""Tests for the sweep-result API and reporting edge cases."""

import pytest

from repro.bench import SedovSweepConfig, format_table, run_sedov_sweep
from repro.bench.sedov_experiment import paper_scale_requested


@pytest.fixture(scope="module")
def tiny_sweep():
    return run_sedov_sweep(
        SedovSweepConfig(
            scales=(512,),
            policies=("baseline", "cplx:50"),
            steps=150,
        )
    )


class TestSweepResultApi:
    def test_at_unknown_raises(self, tiny_sweep):
        with pytest.raises(KeyError):
            tiny_sweep.at(512, "CPL999")
        with pytest.raises(KeyError):
            tiny_sweep.at(9999, "baseline")

    def test_labels_ordered(self, tiny_sweep):
        assert tiny_sweep.labels() == ["baseline", "CPL50"]

    def test_best_label_defined(self, tiny_sweep):
        assert tiny_sweep.best_label(512) in tiny_sweep.labels()

    def test_reduction_zero_for_baseline(self, tiny_sweep):
        assert tiny_sweep.reduction_vs_baseline(512, "baseline") == 0.0

    def test_fig_tables_nonempty(self, tiny_sweep):
        for text in (tiny_sweep.fig6a_table(), tiny_sweep.fig6b_table(),
                     tiny_sweep.fig6c_table(), tiny_sweep.table_i_text()):
            assert len(text.splitlines()) >= 3

    def test_fig6bc_one_row_per_arm_on_single_scale(self, tiny_sweep):
        # A one-scale sweep's first and last scale coincide; the table
        # must list that scale once, not once per end.
        for text in (tiny_sweep.fig6b_table(), tiny_sweep.fig6c_table()):
            rows = text.splitlines()[3:]
            assert len(rows) == len(tiny_sweep.labels())

    def test_outcome_properties(self, tiny_sweep):
        o = tiny_sweep.at(512, "CPL50")
        assert o.wall_s > 0
        assert 0 <= o.remote_fraction <= 1


class TestScaleEnv:
    def test_paper_scale_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert not paper_scale_requested()
        monkeypatch.setenv("REPRO_SCALE", "paper")
        assert paper_scale_requested()
        monkeypatch.setenv("REPRO_SCALE", "PAPER")
        assert paper_scale_requested()
        monkeypatch.setenv("REPRO_SCALE", "small")
        assert not paper_scale_requested()

    def test_sweep_config_chooses_geometry(self):
        reduced = SedovSweepConfig(paper_scale=False).sedov_config(512)
        paper = SedovSweepConfig(paper_scale=True).sedov_config(512)
        assert reduced.block_cells < paper.block_cells
        assert paper.t_total == 30_590
        assert reduced.root_shape == paper.root_shape  # geometry-faithful


class TestFormatTable:
    def test_empty_rows(self):
        out = format_table(["a", "b"], [])
        assert "a" in out and "b" in out

    def test_mixed_types(self):
        out = format_table(["name", "x"], [["foo", 1.23456], ["bar", 7]])
        assert "1.235" in out  # 4 significant digits
        assert "bar" in out
