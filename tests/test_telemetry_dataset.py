"""Tests for partitioned datasets (pushdown)."""

import numpy as np
import pytest

from repro.telemetry import (
    ColumnPredicate,
    ColumnTable,
    ExecutionReport,
    Query,
    TelemetryDataset,
    execute,
)
from repro.telemetry.columnar import read_stats


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
        t = Query(ds).run()
        assert t.n_rows == 100

    def test_reopen(self, tmp_path):
        ds = TelemetryDataset.create(tmp_path / "ds")
        ds.append(part(0))
        again = TelemetryDataset.open(tmp_path / "ds")
        assert again.n_partitions == 1
        assert Query(again).run().n_rows == 50

    def test_open_missing(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            TelemetryDataset.open(tmp_path / "nope")

    def test_predicate_pushdown_prunes_files(self, tmp_path):
        ds = TelemetryDataset.create(tmp_path / "ds")
        ds.append(part(0))      # steps 0-49
        ds.append(part(100))    # steps 100-149
        ds.append(part(200))    # steps 200-249
        rep = ExecutionReport()
        q = Query(ds).where("step", ">=", 100).where("step", "<=", 149)
        t = execute(q.plan(), rep)
        # first and last partitions pruned by stats
        assert len(rep.scans[0].partitions_pruned) == 2
        assert t.n_rows == 50
        assert t["step"].min() == 100 and t["step"].max() == 149

    def test_row_filtering_within_partition(self, tmp_path):
        ds = TelemetryDataset.create(tmp_path / "ds")
        ds.append(part(0))
        t = Query(ds).where("step", ">=", 10).where("step", "<=", 19).run()
        assert t.n_rows == 10

    def test_column_projection(self, tmp_path):
        ds = TelemetryDataset.create(tmp_path / "ds")
        ds.append(part(0))
        t = Query(ds).select("comm_s").run()
        assert t.names == ["comm_s"]

    def test_unknown_column_not_pruned(self, tmp_path):
        ds = TelemetryDataset.create(tmp_path / "ds")
        ds.append(part(0))
        stats = read_stats(ds.partition_files()[0])
        assert ColumnPredicate("zzz", ">=", 0.0).might_match(stats)
