"""Tests for block cost tracking and per-window task graphs."""

import numpy as np
import pytest

from repro.amr import (
    BlockCostTracker,
    TaskGraph,
    TaskKind,
    build_exchange_graph,
    rank_schedule,
)
from repro.mesh import BlockIndex
from repro.mesh.sfc import block_keys


class TestCostTracker:
    def test_first_observation_sets_estimate(self):
        t = BlockCostTracker()
        b = block_keys([BlockIndex(0, (0, 0, 0))])
        t.observe_all(b, [3.0])
        assert t.estimates(b)[0] == 3.0

    def test_ewma_smoothing(self):
        t = BlockCostTracker(alpha=0.5)
        b = block_keys([BlockIndex(0, (0, 0, 0))])
        t.observe_all(b, [2.0])
        t.observe_all(b, [4.0])
        assert t.estimates(b)[0] == pytest.approx(3.0)

    def test_child_inherits_parent_prior(self):
        t = BlockCostTracker()
        parent = BlockIndex(1, (1, 1, 1))
        t.observe_all(block_keys([parent]), [5.0])
        child = parent.children()[2]
        assert t.estimates(block_keys([child]))[0] == 5.0

    def test_unknown_block_default(self):
        t = BlockCostTracker(default_cost=2.5)
        assert t.estimates(block_keys([BlockIndex(0, (9, 9, 9))]))[0] == 2.5

    def test_forget_except(self):
        t = BlockCostTracker()
        a, b = block_keys([BlockIndex(0, (0, 0))]), block_keys([BlockIndex(0, (1, 0))])
        t.observe_all(a, [1.0])
        t.observe_all(b, [1.0])
        t.forget_except(a)
        assert len(t) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            BlockCostTracker(alpha=0.0)
        with pytest.raises(ValueError):
            BlockCostTracker().observe_all(block_keys([BlockIndex(0, (0,))]), [-1.0])

    def test_estimates_vector(self):
        t = BlockCostTracker()
        blocks = block_keys([BlockIndex(0, (i, 0)) for i in range(3)])
        t.observe_all(blocks, np.array([1.0, 2.0, 3.0]))
        assert t.estimates(blocks).tolist() == [1.0, 2.0, 3.0]


class TestTaskGraph:
    def test_add_and_dependencies(self):
        g = TaskGraph()
        a = g.add(0, TaskKind.COMPUTE, duration=1.0)
        b = g.add(0, TaskKind.SEND, deps=[a], tag=0)
        assert g.predecessors(b) == [a]
        with pytest.raises(ValueError):
            g.add(0, TaskKind.SEND, deps=[99])

    def test_negative_duration_rejected(self):
        g = TaskGraph()
        with pytest.raises(ValueError):
            g.add(0, TaskKind.COMPUTE, duration=-1.0)

    def test_match_sends_recvs_validates(self):
        g = TaskGraph()
        g.add(0, TaskKind.SEND, tag=1)
        with pytest.raises(ValueError, match="unmatched"):
            g.match_sends_recvs()
        g.add(1, TaskKind.RECV, tag=1)
        assert 1 in g.match_sends_recvs()

    def test_duplicate_tag_rejected(self):
        g = TaskGraph()
        g.add(0, TaskKind.SEND, tag=1)
        g.add(0, TaskKind.SEND, tag=1)
        with pytest.raises(ValueError, match="duplicate"):
            g.match_sends_recvs()


class TestExchangeGraph:
    def build(self):
        block_rank = np.array([0, 0, 1])
        costs = np.array([1.0, 2.0, 3.0])
        edges = np.array([[0, 2], [0, 1]])  # one cross-rank, one co-located
        return build_exchange_graph(block_rank, costs, edges)

    def test_structure(self):
        g = self.build()
        kinds = [t.kind for t in g.tasks]
        assert kinds.count(TaskKind.COMPUTE) == 3
        # Only the cross-rank pair generates sends/recvs (both directions).
        assert kinds.count(TaskKind.SEND) == 2
        assert kinds.count(TaskKind.RECV) == 2
        assert kinds.count(TaskKind.SYNC) == 2  # one per rank

    def test_send_depends_on_its_block_compute(self):
        g = self.build()
        for t in g.tasks:
            if t.kind is TaskKind.SEND:
                dep = g.tasks[g.predecessors(t.tid)[0]]
                assert dep.kind is TaskKind.COMPUTE
                assert dep.block == t.block

    def test_schedules_cover_rank_tasks(self):
        g = self.build()
        for rank in (0, 1):
            for sp in (True, False):
                sched = rank_schedule(g, rank, send_priority=sp)
                expect = [t for t in g.tasks if t.rank == rank]
                assert sorted(t.tid for t in sched) == sorted(t.tid for t in expect)
                assert sched[-1].kind is TaskKind.SYNC

    def test_send_priority_moves_sends_earlier(self):
        g = self.build()
        tuned = rank_schedule(g, 0, send_priority=True)
        untuned = rank_schedule(g, 0, send_priority=False)

        def send_pos(s):
            return [i for i, t in enumerate(s) if t.kind is TaskKind.SEND][0]

        assert send_pos(tuned) <= send_pos(untuned)
