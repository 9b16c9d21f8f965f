"""Tests for Sedov and cooling workload generators and redistribution."""

import dataclasses

import numpy as np
import pytest

from repro.amr import (
    CoolingConfig,
    CoolingWorkload,
    SedovConfig,
    SedovWorkload,
    TABLE_I_CONFIGS,
    carry_assignment,
    redistribute,
    scaled_config,
    table_i_config,
)
from repro.core import get_policy
from repro.simnet import DEFAULT_FABRIC


class TestSedovConfig:
    def test_table_i_geometry(self):
        """Table I: mesh size / 16^3 blocks == one block per rank."""
        expected = {
            512: (8, 8, 8),
            1024: (8, 8, 16),
            2048: (8, 16, 16),
            4096: (16, 16, 16),
        }
        for ranks, shape in expected.items():
            cfg = TABLE_I_CONFIGS[ranks]
            assert cfg.root_shape == shape
            assert cfg.n_root_blocks == ranks
            assert cfg.block_cells == 16

    def test_table_i_timesteps(self):
        assert TABLE_I_CONFIGS[512].t_total == 30_590
        assert TABLE_I_CONFIGS[4096].t_total == 53_459

    def test_shock_radius_monotone_t25(self):
        cfg = TABLE_I_CONFIGS[512]
        rs = [cfg.shock_radius(t) for t in range(0, cfg.t_total, 1000)]
        assert all(b > a for a, b in zip(rs, rs[1:]))
        # r ~ t^0.4: doubling t scales (r - r0) by 2^0.4
        r0 = cfg.shock_radius(0)
        g1 = cfg.shock_radius(1000) - r0
        g2 = cfg.shock_radius(2000) - r0
        assert g2 / g1 == pytest.approx(2**0.4, rel=1e-6)

    def test_scaled_config_preserves_root_grid(self):
        cfg = scaled_config(1024, scale=8, steps=100)
        assert cfg.root_shape == (8, 8, 16)
        assert cfg.t_total == 100

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            SedovConfig(n_ranks=4096, mesh_cells=(64, 64, 64))
        with pytest.raises(ValueError):
            SedovConfig(n_ranks=8, mesh_cells=(100, 64, 64))

    def test_unknown_scale_rejected(self):
        with pytest.raises(KeyError):
            table_i_config(777)


class TestSedovTrajectory:
    @pytest.fixture(scope="class")
    def trajectory(self):
        cfg = scaled_config(512, scale=8, steps=600)
        return SedovWorkload(cfg).full_trajectory()

    def test_epochs_tile_the_run(self, trajectory):
        assert trajectory[0].step_start == 0
        for a, b in zip(trajectory, trajectory[1:]):
            assert a.step_start + a.n_steps == b.step_start
        assert trajectory[-1].step_start + trajectory[-1].n_steps == 600

    def test_block_counts_grow_with_shock(self, trajectory):
        first, last = len(trajectory[0].keys), len(trajectory[-1].keys)
        assert first == 512  # one block per rank initially
        assert last > first

    def test_costs_positive_and_shock_weighted(self, trajectory):
        for e in trajectory[:: max(1, len(trajectory) // 5)]:
            assert e.base_costs.shape == (len(e.keys),)
            assert (e.base_costs > 0).all()
        mid = trajectory[len(trajectory) // 2]
        # Blocks near the shock must be the expensive ones.
        assert mid.base_costs.max() > 1.5 * np.median(mid.base_costs)

    def test_graph_matches_blocks(self, trajectory):
        for e in trajectory[:: max(1, len(trajectory) // 4)]:
            assert e.graph.n_blocks == len(e.keys)

    def test_deterministic_given_seed(self):
        cfg = scaled_config(512, scale=8, steps=200)
        t1 = SedovWorkload(cfg).full_trajectory()
        t2 = SedovWorkload(cfg).full_trajectory()
        assert len(t1) == len(t2)
        assert all(np.allclose(a.base_costs, b.base_costs) for a, b in zip(t1, t2))

    def test_max_epoch_cap(self, trajectory):
        cfg = scaled_config(512, scale=8, steps=600)
        cap = cfg.max_epoch_steps + cfg.refine_check_interval
        assert all(e.n_steps <= cap for e in trajectory)


class TestCooling:
    def test_trajectory_structure(self):
        cfg = CoolingConfig(n_ranks=32, root_shape=(4, 4, 2), t_total=300,
                            epoch_steps=100)
        traj = CoolingWorkload(cfg).full_trajectory()
        assert len(traj) == 3
        # Mesh static across epochs; costs drift.
        assert all(len(e.keys) == len(traj[0].keys) for e in traj)
        assert not np.allclose(traj[0].base_costs, traj[1].base_costs)

    def test_refined_around_blobs(self):
        cfg = CoolingConfig(n_ranks=32, root_shape=(4, 4, 2), max_level=1)
        traj = CoolingWorkload(cfg).full_trajectory(max_steps=100)
        assert len(traj[0].keys) > 32  # blob refinement happened

    def test_variability_knob(self):
        lo = CoolingConfig(n_ranks=8, root_shape=(2, 2, 2), variability=0.05, seed=1)
        hi = dataclasses.replace(lo, variability=1.2)
        c_lo = CoolingWorkload(lo).full_trajectory(max_steps=100)[0].base_costs
        c_hi = CoolingWorkload(hi).full_trajectory(max_steps=100)[0].base_costs
        assert c_hi.std() / c_hi.mean() > c_lo.std() / c_lo.mean()

    def test_validation(self):
        with pytest.raises(ValueError):
            CoolingConfig(n_ranks=8, root_shape=(2, 2, 2), n_blobs=0)
        with pytest.raises(ValueError):
            CoolingConfig(n_ranks=8, root_shape=(2, 2, 2), variability=-1)


class TestRedistribution:
    def test_carry_across_refinement(self):
        from repro.mesh import BlockIndex
        from repro.mesh.sfc import block_keys

        old_blocks = [BlockIndex(0, (0, 0)), BlockIndex(0, (1, 0))]
        old_assign = np.array([3, 5])
        kids = old_blocks[0].children()
        new_blocks = list(kids) + [old_blocks[1]]
        carried = carry_assignment(
            block_keys(old_blocks), old_assign, block_keys(new_blocks)
        )
        assert carried.tolist() == [3, 3, 3, 3, 5]

    def test_carry_across_coarsening(self):
        from repro.mesh import BlockIndex
        from repro.mesh.sfc import block_keys

        parent = BlockIndex(0, (0, 0))
        kids = list(parent.children())
        old_assign = np.array([1, 2, 3, 4])
        carried = carry_assignment(block_keys(kids), old_assign, block_keys([parent]))
        assert carried.tolist() == [1]  # first child's rank

    def test_migration_accounting(self):
        policy = get_policy("baseline")
        costs = np.ones(8)
        prev = np.array([1, 1, 0, 0, 3, 3, 2, 2])  # scrambled previous owners
        out = redistribute(policy, costs, 4, prev, DEFAULT_FABRIC)
        assert out.migrated_blocks == 8  # baseline reassigns contiguously
        assert out.migration_s > 0
        assert out.lb_s >= out.placement_s

    def test_no_migration_when_unchanged(self):
        policy = get_policy("baseline")
        costs = np.ones(8)
        prev = policy.place(costs, 4).assignment
        out = redistribute(policy, costs, 4, prev, DEFAULT_FABRIC)
        assert out.migrated_blocks == 0
        assert out.migration_s == 0.0

    def test_startup_no_prev(self):
        out = redistribute(get_policy("baseline"), np.ones(4), 2, None, DEFAULT_FABRIC)
        assert out.migrated_blocks == 0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            redistribute(
                get_policy("baseline"), np.ones(4), 2, np.zeros(3, dtype=int),
                DEFAULT_FABRIC,
            )
