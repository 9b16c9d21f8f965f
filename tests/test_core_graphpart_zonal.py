"""Tests for the graph-partitioner baseline and zonal placement."""

import numpy as np
import pytest

from repro.core import (
    CDPPolicy,
    ChunkedCDPPolicy,
    GraphPartitionPolicy,
    LPTPolicy,
    ZonalPolicy,
    edge_cut,
    get_policy,
    greedy_graph_partition,
    load_stats,
    refine_partition,
    validate_assignment,
)


@pytest.fixture
def mesh_env(small_mesh3d, rng):
    graph = small_mesh3d.neighbor_graph
    costs = rng.lognormal(0.0, 0.3, size=graph.n_blocks)
    return graph, costs


class TestGraphPartition:
    def test_produces_valid_assignment(self, mesh_env):
        graph, costs = mesh_env
        policy = GraphPartitionPolicy(graph)
        a = policy.place(costs, 8).assignment
        validate_assignment(a, graph.n_blocks, 8)

    def test_lower_edge_cut_than_lpt(self, mesh_env):
        """The partitioner optimizes cut; LPT ignores it entirely."""
        graph, costs = mesh_env
        gp = GraphPartitionPolicy(graph).compute(costs, 8)
        lpt = LPTPolicy().compute(costs, 8)
        assert edge_cut(graph, gp) < edge_cut(graph, lpt)

    def test_refinement_never_increases_cut(self, mesh_env):
        graph, costs = mesh_env
        initial = greedy_graph_partition(graph, costs, 8)
        refined = refine_partition(graph, costs, initial, 8)
        assert edge_cut(graph, refined) <= edge_cut(graph, initial) + 1e-9

    def test_balance_kept_within_tolerance(self, mesh_env):
        graph, costs = mesh_env
        a = GraphPartitionPolicy(graph).compute(costs, 8)
        ls = load_stats(costs, a, 8)
        # Partitioner trades some balance for cut — bounded degradation.
        assert ls.makespan <= 2.0 * ls.mean

    def test_wrong_block_count_rejected(self, mesh_env):
        graph, _ = mesh_env
        with pytest.raises(ValueError):
            GraphPartitionPolicy(graph).compute(np.ones(3), 2)

    def test_edge_cut_zero_on_single_rank(self, mesh_env):
        graph, costs = mesh_env
        a = np.zeros(graph.n_blocks, dtype=np.int64)
        assert edge_cut(graph, a) == 0.0

    def test_paper_claim_cut_not_proxy_for_makespan(self, mesh_env):
        """§VIII: edge cut is the wrong objective for straggler cost —
        the partitioner's makespan is worse than LPT's even when its
        cut is better."""
        graph, costs = mesh_env
        gp = GraphPartitionPolicy(graph).compute(costs, 8)
        lpt = LPTPolicy().compute(costs, 8)
        assert edge_cut(graph, gp) < edge_cut(graph, lpt)
        assert (
            load_stats(costs, gp, 8).makespan
            > load_stats(costs, lpt, 8).makespan
        )


class TestZonal:
    def test_single_zone_matches_inner(self, rng):
        costs = rng.exponential(1.0, size=100)
        inner = ZonalPolicy(lambda: LPTPolicy(), ranks_per_zone=64)
        a = inner.compute(costs, 16)
        b = LPTPolicy().compute(costs, 16)
        assert np.array_equal(a, b)

    def test_multi_zone_valid_and_zone_confined(self, rng):
        costs = rng.exponential(1.0, size=512)
        policy = ZonalPolicy(lambda: LPTPolicy(), ranks_per_zone=32)
        a = policy.place(costs, 128).assignment
        validate_assignment(a, 512, 128)
        # Blocks of the first zone stay in the first zone's rank range:
        # zonal never crosses zone boundaries.
        from repro.core.chunked import _rank_shares, split_chunks

        ranges = split_chunks(costs, 4)
        zone_costs = np.asarray([costs[s:e].sum() for s, e in ranges])
        shares = _rank_shares(zone_costs, 128)
        offsets = np.concatenate([[0], np.cumsum(shares)])
        for z, (s, e) in enumerate(ranges):
            assert (a[s:e] >= offsets[z]).all()
            assert (a[s:e] < offsets[z + 1]).all()

    @pytest.mark.parametrize("n_ranks,k", [(7, 2), (128, 32), (500, 64)])
    def test_zonal_cdp_is_chunked_cdp(self, rng, n_ranks, k):
        costs = rng.exponential(1.0, size=3 * n_ranks)
        zonal = ZonalPolicy(CDPPolicy, ranks_per_zone=k).compute(costs, n_ranks)
        chunked = ChunkedCDPPolicy(ranks_per_chunk=k).compute(costs, n_ranks)
        assert np.array_equal(zonal, chunked)

    def test_registered(self):
        p = get_policy("zonal")
        assert isinstance(p, ZonalPolicy)

    def test_quality_close_to_global(self, rng):
        costs = rng.exponential(1.0, size=1000)
        zonal = ZonalPolicy(lambda: LPTPolicy(), ranks_per_zone=64).compute(costs, 256)
        global_lpt = LPTPolicy().compute(costs, 256)
        mz = load_stats(costs, zonal, 256).makespan
        mg = load_stats(costs, global_lpt, 256).makespan
        assert mz <= mg * 1.6  # bounded loss from zone confinement

    def test_validation(self):
        with pytest.raises(ValueError):
            ZonalPolicy(ranks_per_zone=0)
