"""Tests for statistical run comparison."""

import numpy as np
import pytest

from repro.telemetry import ColumnTable, compare_runs


class TestCompareRuns:
    def make(self, sync_scale_b=0.5, n=400, seed=1):
        rng = np.random.default_rng(seed)

        def run(sync_scale):
            return ColumnTable(
                {
                    "compute_s": rng.normal(1.0, 0.05, n),
                    "comm_s": rng.exponential(0.02, n),
                    "sync_s": rng.exponential(0.3 * sync_scale, n),
                }
            )

        return run(1.0), run(sync_scale_b)

    def test_detects_real_improvement(self):
        a, b = self.make(sync_scale_b=0.5)
        cmp = compare_runs(a, b)
        assert cmp.improved("sync_s")
        assert not cmp.improved("compute_s")

    def test_no_false_positive_on_identical_distributions(self):
        a, b = self.make(sync_scale_b=1.0)
        cmp = compare_runs(a, b)
        assert not cmp.improved("sync_s")

    def test_unknown_column(self):
        a, b = self.make()
        with pytest.raises(KeyError):
            compare_runs(a, b).improved("lb_s")

    def test_empty_rejected(self):
        a, _ = self.make()
        empty = ColumnTable({"compute_s": np.empty(0), "comm_s": np.empty(0),
                             "sync_s": np.empty(0)})
        with pytest.raises(ValueError):
            compare_runs(a, empty)

    def test_text_rendering(self):
        a, b = self.make()
        text = compare_runs(a, b, label_a="before", label_b="after").text()
        assert "before vs after" in text
        assert "sync_s" in text

