"""Coverage for remaining public-API corners across subpackages."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BaselinePolicy, cdp_optimal_makespan, message_stats
from repro.mesh import AmrMesh, BlockIndex, RootGrid
from repro.mesh.octree import OctreeForest


class TestOctreeLeafLevel:
    def test_leaf_level_variants(self):
        f = OctreeForest(RootGrid((2, 2)), max_level=2)
        b = BlockIndex(0, (0, 0))
        kids = f.refine(b)
        # A leaf covers itself.
        assert f.find_covering_leaf(kids[0]) == kids[0]
        # A descendant index of a leaf is covered by that leaf.
        assert f.find_covering_leaf(kids[0].children()[0]) == kids[0]
        # An internal (refined) region has no covering leaf.
        assert f.find_covering_leaf(b) is None
        # Outside the domain has none either.
        assert f.find_covering_leaf(BlockIndex(0, (5, 5))) is None


class TestCdpOptimalEdges:
    def test_single_rank_is_total(self):
        costs = np.array([1.0, 2.0, 3.0])
        assert cdp_optimal_makespan(costs, 1) == pytest.approx(6.0)

    def test_one_block(self):
        assert cdp_optimal_makespan(np.array([5.0]), 4) == pytest.approx(5.0)

    def test_empty(self):
        assert cdp_optimal_makespan(np.array([]), 3) == 0.0

    @given(st.lists(st.floats(0.1, 5.0), min_size=1, max_size=30),
           st.integers(1, 6))
    @settings(max_examples=20)
    def test_bracketed_by_bounds(self, costs, r):
        costs = np.asarray(costs)
        opt = cdp_optimal_makespan(costs, r)
        assert opt >= max(costs.max(), costs.sum() / r) - 1e-9
        assert opt <= costs.sum() + 1e-9


class TestMessageStatsPartition:
    @given(st.integers(0, 40), st.integers(1, 8))
    @settings(max_examples=20)
    def test_classes_partition_edges(self, seed, n_ranks):
        from tests.helpers import random_forest

        from tests.mesh_reference import build_neighbor_graph

        f = random_forest(seed, dim=2)
        g = build_neighbor_graph(f)
        rng = np.random.default_rng(seed)
        a = rng.integers(0, n_ranks, size=g.n_blocks)
        ms = message_stats(g, a, ranks_per_node=2)
        assert ms.intra_rank + ms.local + ms.remote == g.n_edges


class TestPlacementResultLoads:
    def test_loads_match_bincount(self, rng):
        costs = rng.exponential(1.0, size=40)
        res = BaselinePolicy().place(costs, 8)
        loads = res.loads(costs, 8)
        assert loads.sum() == pytest.approx(costs.sum())
        assert loads.shape == (8,)


class TestUntunedCascadeConvergence:
    def test_cascade_bounded_and_worse_than_tuned(self, rng):
        """The untuned fixpoint stays finite and dominates the tuned path."""
        from repro.bench import random_refined_mesh
        from repro.core import get_policy
        from repro.simnet import BSPModel, Cluster, ExchangePattern, TUNED, UNTUNED

        mesh = random_refined_mesh(64, 2.0, rng)
        costs = rng.lognormal(0.0, 0.3, size=mesh.n_blocks)
        cluster = Cluster(n_ranks=64)
        a = get_policy("baseline").place(costs, 64).assignment
        pattern = ExchangePattern.from_mesh(mesh.neighbor_graph, a, costs, cluster)
        tuned = BSPModel(cluster, tuning=TUNED, seed=1).step(pattern)
        untuned = BSPModel(cluster, tuning=UNTUNED, seed=1).step(pattern)
        assert np.isfinite(untuned.comm).all()
        assert untuned.step_time >= tuned.step_time * 0.99
        assert untuned.comm.sum() > tuned.comm.sum()


class TestCommbenchResultApi:
    def test_series_and_best(self):
        from repro.bench import CommbenchResult

        r = CommbenchResult(
            n_ranks=64,
            x_values=(0.0, 50.0, 100.0),
            mean_latency_s=np.array([2e-3, 1e-3, 3e-3]),
            std_latency_s=np.zeros(3),
            discarded_rounds=2,
        )
        assert r.best_x() == 50.0
        assert "CPL50" in r.series()


class TestMeshReprs:
    def test_reprs_are_informative(self):
        mesh = AmrMesh(RootGrid((2, 2)))
        assert "AmrMesh" in repr(mesh)
        assert "leaves=4" in repr(mesh.forest)
        from repro.simnet import Cluster

        assert "ranks=32" in repr(Cluster(n_ranks=32))


class TestDriverConfigDefaults:
    def test_frozen_and_sane(self):
        import dataclasses

        from repro.amr import DriverConfig

        cfg = DriverConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.seed = 7
        assert cfg.exchange_rounds >= 1
        assert 0 < cfg.samples_per_epoch <= 10
