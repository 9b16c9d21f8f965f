"""Sharded block-metadata tables and the sharded scalebench path."""

import numpy as np
import pytest

from repro.mesh import ShardedBlockTable


# ---------------------------------------------------------------------- #
# ShardedBlockTable
# ---------------------------------------------------------------------- #


class TestShardedBlockTable:
    def test_bounds_from_shard_blocks(self):
        t = ShardedBlockTable(10, shard_blocks=4)
        assert t.n_shards == 3
        assert [t.shard_bounds(i) for i in range(2)] == [(0, 4), (4, 8)]
        assert t.shard_bounds(2) == (8, 10)
        with pytest.raises(IndexError):
            t.shard_bounds(3)

    def test_explicit_bounds_validation(self):
        ShardedBlockTable(6, bounds=[0, 2, 6])
        with pytest.raises(ValueError):
            ShardedBlockTable(6, bounds=[1, 6])
        with pytest.raises(ValueError):
            ShardedBlockTable(6, bounds=[0, 4, 2, 6])
        with pytest.raises(ValueError):
            ShardedBlockTable(6, shard_blocks=2, bounds=[0, 6])
        with pytest.raises(ValueError):
            ShardedBlockTable(6)
        with pytest.raises(ValueError):
            ShardedBlockTable(6, shard_blocks=0)

    def test_zero_blocks(self):
        t = ShardedBlockTable(0, shard_blocks=8)
        assert t.n_shards == 1 and t.shard_bounds(0) == (0, 0)

    def test_column_length_enforced(self):
        t = ShardedBlockTable(
            8, shard_blocks=4,
            columns={"bad": lambda s, lo, hi: np.zeros(hi - lo + 1)},
        )
        with pytest.raises(ValueError):
            t.column(0, "bad")

    def test_memory_accounting(self):
        t = ShardedBlockTable(
            12, shard_blocks=4,
            columns={
                "a": lambda s, lo, hi: np.arange(lo, hi, dtype=np.int64),
                "b": lambda s, lo, hi: np.ones(hi - lo, dtype=np.float64),
            },
        )
        for s in range(t.n_shards):
            cols = t.materialize(s)
            assert np.array_equal(cols["a"], np.arange(*t.shard_bounds(s)))
        # peak = one shard's working set; total = every byte produced
        assert t.peak_shard_bytes == 4 * 16
        assert t.total_bytes == 12 * 16


# ---------------------------------------------------------------------- #
# sharded scalebench
# ---------------------------------------------------------------------- #


class TestShardedScalebench:
    def test_effective_shard_ranks_policy(self):
        from repro.bench.scalebench import (
            AUTO_SHARD_MIN_RANKS,
            AUTO_SHARD_RANKS,
            ScalebenchConfig,
        )

        auto = ScalebenchConfig()
        assert auto.effective_shard_ranks(512) is None
        assert auto.effective_shard_ranks(AUTO_SHARD_MIN_RANKS - 1) is None
        assert auto.effective_shard_ranks(AUTO_SHARD_MIN_RANKS) == AUTO_SHARD_RANKS
        forced = ScalebenchConfig(shard_ranks=64)
        assert forced.effective_shard_ranks(512) == 64
        assert forced.effective_shard_ranks(32) == 32
        with pytest.raises(ValueError):
            ScalebenchConfig(shard_ranks=-1)

    def test_single_shard_matches_global_path(self):
        from repro.bench.scalebench import (
            ScalebenchConfig,
            run_scalebench,
            scalebench_digest,
        )

        base = dict(
            scales=(256,),
            distributions=("exponential", "gaussian"),
            x_values=(0.0, 50.0),
            repeats=2,
        )
        rows_global = run_scalebench(ScalebenchConfig(**base))
        rows_sharded = run_scalebench(ScalebenchConfig(**base, shard_ranks=256))
        assert scalebench_digest(rows_global) == scalebench_digest(rows_sharded)
        for g, s in zip(rows_global, rows_sharded):
            assert g.norm_makespan == s.norm_makespan

    def test_multi_shard_memory_is_shard_sized(self):
        from repro.bench.scalebench import (
            ScalebenchConfig,
            _place_sharded,
            _ScalebenchCell,
        )
        from repro.core.policy import get_policy

        config = ScalebenchConfig(scales=(512,), shard_ranks=64, repeats=1)
        cell = _ScalebenchCell(
            config=config, n_ranks=512, distribution="exponential", x=50.0
        )
        norm, elapsed, peak = _place_sharded(get_policy("cplx:50"), cell, 7, 64)
        assert norm >= 1.0 and elapsed >= 0.0
        # peak shard working set: cost (f64) + sfc_id (i64) per block of
        # ONE 64-rank window, not the 512-rank global table
        assert peak == int(64 * config.blocks_per_rank) * 16

    def test_spec_params_reach_config(self):
        from repro.service import spec_from_params

        spec = spec_from_params(
            "scalebench",
            {
                "scales": [128],
                "repeats": 1,
                "distributions": ["gaussian"],
                "x_values": [50.0],
                "shard_ranks": 32,
                "seed": 12345,
            },
        )
        cfg = spec.config
        assert cfg.scales == (128,)
        assert cfg.distributions == ("gaussian",)
        assert cfg.x_values == (50.0,)
        assert cfg.shard_ranks == 32
        assert cfg.seed == 12345
        # A key the kind does not read is an error naming the key and
        # the kind's accepted keys, never silently dropped.
        with pytest.raises(ValueError, match="'stepz'.*steps"):
            spec_from_params("sedov", {"stepz": 20})
        with pytest.raises(ValueError, match="'ranks'.*shard_ranks"):
            spec_from_params("scalebench", {"ranks": 64})
        with pytest.raises(ValueError, match="'scales'.*checkpoint_interval"):
            spec_from_params("resilience", {"scales": [512]})

    def test_cli_shard_flags_end_to_end(self, capsys):
        from repro.cli import main

        code = main([
            "scalebench", "--scales", "64", "--repeats", "1",
            "--distributions", "exponential", "--x-values", "50",
            "--shard-ranks", "16",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "normalized makespan @ 64 ranks" in out
