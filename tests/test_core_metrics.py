"""Tests for load/locality metrics and the placement timing budget."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    DEFAULT_MESSAGE_WEIGHTS,
    BaselinePolicy,
    PAPER_BUDGET_S,
    contiguity_fraction,
    load_stats,
    measure_policy,
    message_stats,
    normalized_makespan,
    within_budget,
)
from repro.mesh import NeighborKind
from repro.mesh.neighbors import NeighborGraph


def toy_graph() -> NeighborGraph:
    """4 blocks in a path: 0-1 (face), 1-2 (edge), 2-3 (vertex)."""
    edges = np.array([[0, 1], [1, 2], [2, 3]])
    kinds = np.array(
        [NeighborKind.FACE, NeighborKind.EDGE, NeighborKind.VERTEX], dtype=np.int8
    )
    return NeighborGraph(np.arange(4), edges, kinds)


class TestLoadStats:
    def test_basics(self):
        costs = np.array([3.0, 1.0, 2.0, 2.0])
        ls = load_stats(costs, np.array([0, 0, 1, 1]), 2)
        assert ls.makespan == 4.0
        assert ls.mean == 4.0
        assert ls.imbalance == 1.0
        assert ls.min_load == 4.0

    def test_empty_rank_counted(self):
        ls = load_stats(np.array([2.0]), np.array([0]), 3)
        assert ls.min_load == 0.0
        assert ls.makespan == 2.0

    @given(st.lists(st.floats(0.1, 5.0), min_size=1, max_size=50), st.integers(1, 8))
    def test_normalized_makespan_at_least_one(self, costs, r):
        costs = np.asarray(costs)
        a = BaselinePolicy().compute(costs, r)
        assert normalized_makespan(costs, a, r) >= 1.0 - 1e-12


class TestMessageStats:
    def test_classification(self):
        g = toy_graph()
        # ranks: 0,0,1,2 with 2 ranks per node -> node(0)=0 node(1)=0 node(2)=1
        a = np.array([0, 0, 1, 2])
        ms = message_stats(g, a, ranks_per_node=2)
        assert ms.intra_rank == 1       # edge 0-1
        assert ms.local == 1            # edge 1-2 (ranks 0,1 on node 0)
        assert ms.remote == 1           # edge 2-3 (ranks 1,2 across nodes)
        assert ms.mpi_visible == 2
        assert ms.remote_fraction == 0.5
        assert ms.intra_rank_volume == DEFAULT_MESSAGE_WEIGHTS[NeighborKind.FACE]
        assert ms.remote_volume == DEFAULT_MESSAGE_WEIGHTS[NeighborKind.VERTEX]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            message_stats(toy_graph(), np.zeros(3, dtype=int), 2)

    def test_ranks_per_node_validation(self):
        with pytest.raises(ValueError):
            message_stats(toy_graph(), np.zeros(4, dtype=int), 0)

    def test_all_on_one_rank(self):
        ms = message_stats(toy_graph(), np.zeros(4, dtype=int), 2)
        assert ms.mpi_visible == 0
        assert ms.remote_fraction == 0.0
        assert ms.intra_rank == 3


class TestContiguity:
    def test_extremes(self):
        assert contiguity_fraction(np.array([0, 0, 1, 1])) == pytest.approx(2 / 3)
        assert contiguity_fraction(np.array([0, 1, 0, 1])) == 0.0
        assert contiguity_fraction(np.array([5])) == 1.0


class TestBudget:
    def test_measure_policy_report(self):
        rep = measure_policy(BaselinePolicy(), np.ones(100), 8, repeats=3)
        assert rep.policy == "baseline"
        assert rep.mean_s <= rep.max_s
        assert rep.within_budget  # baseline is microseconds
        assert "OK" in rep.row()

    def test_within_budget_quick(self):
        assert within_budget(BaselinePolicy(), np.ones(1000), 64)

    def test_budget_constant_is_papers(self):
        assert PAPER_BUDGET_S == 0.050

    def test_repeats_validation(self):
        with pytest.raises(ValueError):
            measure_policy(BaselinePolicy(), np.ones(4), 2, repeats=0)
