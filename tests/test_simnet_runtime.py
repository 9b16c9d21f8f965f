"""Tests for the vectorized BSP runtime (ExchangePattern + BSPModel)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import get_policy, message_stats
from repro.mesh.neighbors import NeighborGraph
from repro.simnet import (
    BSPModel,
    Cluster,
    ExchangePattern,
    FaultModel,
    TUNED,
    UNTUNED,
)

from tests.helpers import random_edges


@pytest.fixture
def env(small_mesh3d, rng):
    mesh = small_mesh3d
    cluster = Cluster(n_ranks=16)
    costs = rng.lognormal(0.0, 0.3, size=mesh.n_blocks)
    assignment = get_policy("baseline").place(costs, 16).assignment
    pattern = ExchangePattern.from_mesh(
        mesh.neighbor_graph, assignment, costs, cluster
    )
    return mesh, cluster, costs, assignment, pattern


class TestExchangePattern:
    def test_counts_match_message_stats(self, env):
        mesh, cluster, costs, assignment, pattern = env
        ms = message_stats(mesh.neighbor_graph, assignment, cluster.ranks_per_node)
        # Each undirected cross-rank pair is two directed messages.
        assert pattern.in_local.sum() == 2 * ms.local
        assert pattern.in_remote.sum() == 2 * ms.remote
        assert pattern.out_remote.sum() == pattern.in_remote.sum()

    @given(st.integers(0, 10_000), st.integers(1, 60), st.integers(1, 64))
    @settings(max_examples=30)
    def test_message_counts_equal_message_stats(self, seed, n_blocks, n_ranks):
        rng = np.random.default_rng(seed)
        cluster = Cluster(n_ranks=n_ranks)
        rpn = cluster.ranks_per_node
        edges = random_edges(rng, n_blocks, factor=int(rng.integers(0, 4)))
        kinds = rng.integers(1, 4, size=len(edges)).astype(np.int8)
        graph = NeighborGraph(np.arange(n_blocks), edges, kinds)
        costs = np.ones(n_blocks)
        spread = rng.integers(0, n_ranks, size=n_blocks)
        one_rank = np.zeros(n_blocks, dtype=np.int64)
        for assignment in (spread, one_rank):
            pattern = ExchangePattern.from_mesh(graph, assignment, costs, cluster)
            ms = message_stats(graph, assignment, rpn)
            assert pattern.message_counts(graph.n_edges) == (
                ms.intra_rank, ms.local, ms.remote
            )

    def test_message_counts_edgeless(self):
        graph = NeighborGraph(
            np.arange(5), np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.int8)
        )
        pattern = ExchangePattern.from_mesh(
            graph, np.arange(5) % 2, np.ones(5), Cluster(n_ranks=32)
        )
        assert pattern.message_counts(0) == (0, 0, 0)

    def test_loads_match_bincount(self, env):
        _, cluster, costs, assignment, pattern = env
        expected = np.bincount(assignment, weights=costs, minlength=16)
        assert np.allclose(pattern.loads, expected)

    def test_pair_latency_paths(self, env):
        _, cluster, _, _, pattern = env
        if pattern.pair_local.any() and (~pattern.pair_local).any():
            assert (
                pattern.pair_latency[pattern.pair_local].max()
                < pattern.pair_latency[~pattern.pair_local].min()
            )

    def test_empty_graph(self):
        from repro.mesh import AmrMesh, RootGrid

        mesh = AmrMesh(RootGrid((1, 1, 1)))
        cluster = Cluster(n_ranks=2)
        p = ExchangePattern.from_mesh(
            mesh.neighbor_graph, np.zeros(1, dtype=np.int64), np.ones(1), cluster
        )
        assert p.pair_src.size == 0
        assert p.in_local.sum() == 0


class TestBSPStep:
    def test_determinism_with_seed(self, env):
        _, cluster, _, _, pattern = env
        a = BSPModel(cluster, seed=5).step(pattern)
        b = BSPModel(cluster, seed=5).step(pattern)
        assert np.allclose(a.compute, b.compute)
        assert np.allclose(a.comm, b.comm)
        assert np.allclose(a.sync, b.sync)

    def test_phases_nonnegative_and_consistent(self, env):
        _, cluster, _, _, pattern = env
        ph = BSPModel(cluster, seed=1).step(pattern)
        assert (ph.compute >= 0).all()
        assert (ph.comm >= 0).all()
        assert (ph.sync >= -1e-12).all()
        totals = ph.compute + ph.comm + ph.sync
        assert np.allclose(totals, totals[0])  # everyone ends at the sync
        assert ph.step_time == pytest.approx(float(totals[0]))

    def test_compute_scales_with_load(self, env):
        mesh, cluster, costs, _, _ = env
        heavy = get_policy("baseline").place(costs * 10, 16).assignment
        p1 = ExchangePattern.from_mesh(mesh.neighbor_graph, heavy, costs, cluster)
        p10 = ExchangePattern.from_mesh(
            mesh.neighbor_graph, heavy, costs * 10, cluster
        )
        m = BSPModel(cluster, seed=0)
        t1 = m.step(p1).compute.sum()
        m2 = BSPModel(cluster, seed=0)
        t10 = m2.step(p10).compute.sum()
        assert t10 == pytest.approx(10 * t1, rel=1e-9)

    def test_throttled_node_inflates_sync_for_others(self, env):
        mesh, _, costs, assignment, _ = env
        healthy = Cluster(n_ranks=16)
        # 16 ranks on one node: throttle granularity is the whole cluster;
        # use 2 nodes instead.
        sick = Cluster(n_ranks=32).throttle_nodes([1])
        pat_ok = ExchangePattern.from_mesh(
            mesh.neighbor_graph, assignment, costs, healthy
        )
        a2 = get_policy("baseline").place(costs, 32).assignment
        pat_sick = ExchangePattern.from_mesh(mesh.neighbor_graph, a2, costs, sick)
        sync_ok = BSPModel(healthy, seed=3).step(pat_ok).sync.mean()
        sync_sick = BSPModel(sick, seed=3).step(pat_sick).sync.mean()
        assert sync_sick > sync_ok * 1.5

    def test_untuned_cascade_increases_comm(self, env):
        _, cluster, _, _, pattern = env
        tuned = BSPModel(cluster, tuning=TUNED, seed=2).step(pattern)
        untuned = BSPModel(cluster, tuning=UNTUNED, seed=2).step(pattern)
        assert untuned.comm.sum() > tuned.comm.sum()

    def test_ack_faults_add_time_without_drain_queue(self, env):
        # ACK faults only hit *remote* sends, so spread ranks over 2 nodes.
        mesh, _, costs, _, _ = env
        cluster = Cluster(n_ranks=32)
        assignment = get_policy("baseline").place(costs, 32).assignment
        pattern = ExchangePattern.from_mesh(
            mesh.neighbor_graph, assignment, costs, cluster
        )
        assert pattern.out_remote.sum() > 0
        faults = FaultModel(ack_loss_prob=0.5, ack_recovery_s=0.1)
        no_dq = dataclasses.replace(TUNED, drain_queue=False)
        base = BSPModel(cluster, tuning=TUNED, faults=faults, seed=4).step(pattern)
        hit = BSPModel(cluster, tuning=no_dq, faults=faults, seed=4).step(pattern)
        assert hit.step_time > base.step_time

    def test_exchange_rounds_scale_backlog(self, env):
        _, cluster, _, _, pattern = env
        one = BSPModel(cluster, seed=6, exchange_rounds=1).step(pattern)
        four = BSPModel(cluster, seed=6, exchange_rounds=4).step(pattern)
        assert four.comm.sum() > one.comm.sum()

    def test_invalid_rounds(self, env):
        _, cluster, _, _, _ = env
        with pytest.raises(ValueError):
            BSPModel(cluster, exchange_rounds=0)


class TestSimulateSteps:
    def test_epoch_scaling(self, env):
        _, cluster, _, _, pattern = env
        model = BSPModel(cluster, seed=7)
        mean, wall = model.simulate_steps(pattern, n_steps=100, max_samples=4)
        assert wall == pytest.approx(
            (mean.compute + mean.comm + mean.sync).max() * 100, rel=0.5
        )

    def test_single_step(self, env):
        _, cluster, _, _, pattern = env
        model = BSPModel(cluster, seed=8)
        mean, wall = model.simulate_steps(pattern, n_steps=1)
        assert wall == pytest.approx(mean.step_time)

    def test_invalid_steps(self, env):
        _, cluster, _, _, pattern = env
        with pytest.raises(ValueError):
            BSPModel(cluster).simulate_steps(pattern, 0)

    def test_totals_dict(self, env):
        _, cluster, _, _, pattern = env
        ph = BSPModel(cluster, seed=9).step(pattern)
        t = ph.totals()
        assert set(t) == {"compute", "comm", "sync"}
        assert t["compute"] == pytest.approx(float(ph.compute.sum()))
