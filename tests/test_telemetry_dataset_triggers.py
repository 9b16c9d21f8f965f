"""Tests for partitioned datasets (pushdown)."""

import numpy as np
import pytest

from repro.telemetry import (
    ColumnTable,
    Predicate,
    TelemetryDataset,
)


def part(step_lo: int, n: int = 50, comm_scale: float = 1.0) -> ColumnTable:
    rng = np.random.default_rng(step_lo)
    return ColumnTable(
        {
            "step": np.arange(step_lo, step_lo + n),
            "rank": rng.integers(0, 8, n),
            "comm_s": rng.exponential(0.01 * comm_scale, n),
        }
    )


class TestDataset:
    def test_create_append_read(self, tmp_path):
        ds = TelemetryDataset.create(tmp_path / "ds")
        ds.append(part(0), label="epoch-0")
        ds.append(part(50), label="epoch-1")
        assert ds.n_partitions == 2
        assert ds.labels() == ["epoch-0", "epoch-1"]
        t = ds.read()
        assert t.n_rows == 100

    def test_reopen(self, tmp_path):
        ds = TelemetryDataset.create(tmp_path / "ds")
        ds.append(part(0))
        again = TelemetryDataset.open(tmp_path / "ds")
        assert again.n_partitions == 1
        assert again.read().n_rows == 50

    def test_open_missing(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            TelemetryDataset.open(tmp_path / "nope")

    def test_predicate_pushdown_prunes_files(self, tmp_path):
        ds = TelemetryDataset.create(tmp_path / "ds")
        ds.append(part(0))      # steps 0-49
        ds.append(part(100))    # steps 100-149
        ds.append(part(200))    # steps 200-249
        pred = [Predicate("step", lo=100, hi=149)]
        skipped = ds.pruned_partitions(pred)
        assert len(skipped) == 2  # first and last partitions pruned by stats
        t = ds.read(predicates=pred)
        assert t.n_rows == 50
        assert t["step"].min() == 100 and t["step"].max() == 149

    def test_row_filtering_within_partition(self, tmp_path):
        ds = TelemetryDataset.create(tmp_path / "ds")
        ds.append(part(0))
        t = ds.read(predicates=[Predicate("step", lo=10, hi=19)])
        assert t.n_rows == 10

    def test_column_projection(self, tmp_path):
        ds = TelemetryDataset.create(tmp_path / "ds")
        ds.append(part(0))
        t = ds.read(columns=["comm_s"])
        assert t.names == ["comm_s"]

    def test_no_match_raises(self, tmp_path):
        ds = TelemetryDataset.create(tmp_path / "ds")
        ds.append(part(0))
        with pytest.raises(LookupError):
            ds.read(predicates=[Predicate("step", lo=1000)])

    def test_unknown_column_not_pruned(self, tmp_path):
        ds = TelemetryDataset.create(tmp_path / "ds")
        ds.append(part(0))
        assert ds.pruned_partitions([Predicate("zzz", lo=0)]) == []
