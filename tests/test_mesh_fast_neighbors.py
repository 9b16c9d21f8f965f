"""Equivalence + property tests for the vectorized neighbor builder."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh import AmrMesh, RefinementTags, RootGrid
from repro.mesh.fast_neighbors import build_neighbor_graph_fast
from repro.mesh.octree import OctreeForest

from tests.helpers import random_forest
from tests.mesh_reference import build_neighbor_graph, is_two_one_balanced


def graphs_equal(g1, g2) -> bool:
    if g1.blocks != g2.blocks:
        return False
    e1 = set(map(tuple, np.column_stack([g1.edges, g1.kinds]).tolist()))
    e2 = set(map(tuple, np.column_stack([g2.edges, g2.kinds]).tolist()))
    return e1 == e2


def balanced_random_mesh(seed: int, dim: int = 2) -> AmrMesh:
    """Random mesh built through apply_tags (balance-preserving)."""
    rng = np.random.default_rng(seed)
    shape = (2,) * dim
    periodic = tuple(bool(rng.integers(2)) for _ in range(dim))
    mesh = AmrMesh(RootGrid(shape, periodic=periodic), max_level=3)
    for _ in range(3):
        leaves = sorted(mesh.forest.leaves(), key=lambda b: (b.level, b.coords))
        refine = {
            b for b in leaves
            if b.level < mesh.forest.max_level and rng.random() < 0.3
        }
        coarsen = {
            b for b in leaves
            if b.level > 0 and b not in refine and rng.random() < 0.3
        }
        mesh.remesh(RefinementTags(refine=refine, coarsen=coarsen))
    return mesh


class TestEquivalence:
    @given(st.integers(0, 80))
    @settings(max_examples=30)
    def test_matches_reference_on_balanced_2d(self, seed):
        mesh = balanced_random_mesh(seed, dim=2)
        assert is_two_one_balanced(mesh.forest)
        ref = build_neighbor_graph(mesh.forest)
        fast = build_neighbor_graph_fast(mesh.forest)
        assert graphs_equal(ref, fast)

    @given(st.integers(0, 30))
    @settings(max_examples=10)
    def test_matches_reference_on_balanced_3d(self, seed):
        mesh = balanced_random_mesh(seed, dim=3)
        ref = build_neighbor_graph(mesh.forest)
        fast = build_neighbor_graph_fast(mesh.forest)
        assert graphs_equal(ref, fast)

    def test_uniform_grids(self):
        for shape, periodic in (((4, 4, 4), (False,) * 3),
                                ((4, 4, 4), (True,) * 3),
                                ((2, 3, 5), (False, True, False))):
            f = OctreeForest(RootGrid(shape, periodic=periodic))
            assert graphs_equal(build_neighbor_graph(f),
                                build_neighbor_graph_fast(f))

    def test_single_block(self):
        f = OctreeForest(RootGrid((1, 1, 1)))
        g = build_neighbor_graph_fast(f)
        assert g.n_edges == 0


class TestUnbalancedHandling:
    def unbalanced_forest(self) -> OctreeForest:
        f = OctreeForest(RootGrid((2, 2)), max_level=3)
        from repro.mesh import BlockIndex

        f.refine(BlockIndex(0, (0, 0)))
        # Refine the child abutting the unrefined (1,0) root block: its
        # level-2 children then face a level-0 leaf -> 2:1 violated.
        f.refine(BlockIndex(1, (1, 0)))
        assert not is_two_one_balanced(f)
        return f

    def test_matches_reference_on_unbalanced(self):
        f = self.unbalanced_forest()
        assert graphs_equal(build_neighbor_graph_fast(f), build_neighbor_graph(f))

    @given(st.integers(0, 60))
    @settings(max_examples=20)
    def test_matches_reference_on_random_forests(self, seed):
        # Per-block refine/coarsen walks, often deeper than 2:1 allows.
        f = random_forest(seed, n_ops=10, dim=2 + seed % 2)
        assert graphs_equal(build_neighbor_graph_fast(f), build_neighbor_graph(f))
