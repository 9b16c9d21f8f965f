"""Unit + property tests for cross-level neighbor discovery, and the
vectorized graph builder against the per-block reference
(:mod:`tests.mesh_reference`)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh import AmrMesh, RefinementTags
from repro.mesh.geometry import BlockIndex, RootGrid
from repro.mesh.neighbors import NeighborKind, build_neighbor_graph
from repro.mesh.octree import OctreeForest
from repro.mesh.sfc import block_keys

from tests import mesh_reference
from tests.helpers import random_forest
from tests.mesh_reference import find_neighbors, is_two_one_balanced


class TestUniformGrid:
    def test_interior_block_has_26_neighbors_3d(self):
        f = OctreeForest(RootGrid((4, 4, 4)))
        nbrs = find_neighbors(f, BlockIndex(0, (1, 1, 1)))
        assert len(nbrs) == 26
        kinds = sorted(nbrs.values())
        assert kinds.count(NeighborKind.FACE) == 6
        assert kinds.count(NeighborKind.EDGE) == 12
        assert kinds.count(NeighborKind.VERTEX) == 8

    def test_corner_block_has_7_neighbors_3d(self):
        f = OctreeForest(RootGrid((4, 4, 4)))
        nbrs = find_neighbors(f, BlockIndex(0, (0, 0, 0)))
        assert len(nbrs) == 7

    def test_interior_block_2d(self):
        f = OctreeForest(RootGrid((3, 3)))
        nbrs = find_neighbors(f, BlockIndex(0, (1, 1)))
        assert len(nbrs) == 8
        assert sorted(nbrs.values()).count(NeighborKind.FACE) == 4

    def test_periodic_wraparound(self):
        f = OctreeForest(RootGrid((4, 4, 4), periodic=(True, True, True)))
        nbrs = find_neighbors(f, BlockIndex(0, (0, 0, 0)))
        assert len(nbrs) == 26  # no domain boundary under full periodicity

    def test_non_leaf_rejected(self):
        f = OctreeForest(RootGrid((2, 2)))
        with pytest.raises(KeyError):
            find_neighbors(f, BlockIndex(1, (0, 0)))


class TestCrossLevel:
    def test_fine_block_sees_coarse_neighbor(self):
        f = OctreeForest(RootGrid((2, 2)), max_level=2)
        f.refine(BlockIndex(0, (0, 0)))
        # Child at (1,0) abuts the unrefined coarse block (1,0) by face.
        nbrs = find_neighbors(f, BlockIndex(1, (1, 0)))
        assert nbrs[BlockIndex(0, (1, 0))] == NeighborKind.FACE

    def test_coarse_block_sees_all_fine_face_neighbors(self):
        f = OctreeForest(RootGrid((2, 2)), max_level=2)
        f.refine(BlockIndex(0, (0, 0)))
        nbrs = find_neighbors(f, BlockIndex(0, (1, 0)))
        # Two fine children share its left face; one more only a corner.
        faces = [b for b, k in nbrs.items() if k == NeighborKind.FACE and b.level == 1]
        assert BlockIndex(1, (1, 0)) in faces
        assert BlockIndex(1, (1, 1)) in faces

    def test_strongest_contact_wins(self):
        # A large coarse block touching a fine block's face must be FACE
        # even though diagonal probes also reach it.  (In 2D a corner
        # contact has two nonzero direction components -> EDGE class.)
        f = OctreeForest(RootGrid((2, 2)), max_level=2)
        f.refine(BlockIndex(0, (0, 0)))
        nbrs = find_neighbors(f, BlockIndex(1, (1, 1)))
        assert nbrs[BlockIndex(0, (1, 0))] == NeighborKind.FACE
        assert nbrs[BlockIndex(0, (0, 1))] == NeighborKind.FACE
        assert nbrs[BlockIndex(0, (1, 1))] == NeighborKind.EDGE

    def test_3d_corner_contact_is_vertex(self):
        f = OctreeForest(RootGrid((2, 2, 2)), max_level=2)
        f.refine(BlockIndex(0, (0, 0, 0)))
        nbrs = find_neighbors(f, BlockIndex(1, (1, 1, 1)))
        assert nbrs[BlockIndex(0, (1, 1, 1))] == NeighborKind.VERTEX
        assert nbrs[BlockIndex(0, (1, 0, 0))] == NeighborKind.FACE


class TestGraph:
    @given(st.integers(0, 60))
    def test_symmetry_property(self, seed):
        """A neighbor of B iff B neighbor of A, with equal kind."""
        f = random_forest(seed, dim=2)
        forward = {}
        for b in f.leaves():
            forward[b] = find_neighbors(f, b)
        for b, nbrs in forward.items():
            for nb, kind in nbrs.items():
                assert b in forward[nb], f"{b} -> {nb} not symmetric"
                assert forward[nb][b] == kind

    def test_graph_matches_per_block_probes(self, small_mesh3d):
        g = small_mesh3d.neighbor_graph
        f = small_mesh3d.forest
        ids = {b: i for i, b in enumerate(g.blocks)}
        expected = set()
        for b in g.blocks:
            for nb in find_neighbors(f, b):
                expected.add(tuple(sorted((ids[b], ids[nb]))))
        got = {tuple(e) for e in g.edges.tolist()}
        assert got == expected

    def test_degrees_and_weights(self, small_mesh3d):
        g = small_mesh3d.neighbor_graph
        deg = g.degree()
        assert deg.sum() == 2 * g.n_edges
        w = g.edge_weights({NeighborKind.FACE: 4.0, NeighborKind.EDGE: 2.0,
                            NeighborKind.VERTEX: 1.0})
        assert w.shape == (g.n_edges,)
        assert set(np.unique(w)).issubset({4.0, 2.0, 1.0})

    def test_adjacency_consistency(self, small_mesh3d):
        g = small_mesh3d.neighbor_graph
        adj = g.adjacency()
        assert sum(len(a) for a in adj) == 2 * g.n_edges

    def test_empty_single_block(self):
        f = OctreeForest(RootGrid((1, 1, 1)))
        g = mesh_reference.build_neighbor_graph(f)
        assert g.n_edges == 0
        assert g.degree().tolist() == [0]


class TestNeighborGraphStructure:
    def test_uniform_grid_structure(self):
        from repro.mesh import AmrMesh, NeighborKind, RootGrid

        g = AmrMesh(RootGrid((3, 3, 3))).neighbor_graph
        assert g.n_blocks == 27
        # Connected: a breadth-first search from block 0 reaches all.
        adj = g.adjacency()
        seen, frontier = {0}, [0]
        while frontier:
            frontier = [n for b in frontier for n in adj[b] if n not in seen]
            seen.update(frontier)
        assert len(seen) == 27
        # The center block touches all 26 others; it is found by
        # degree, not by SFC id.
        assert int(g.degree().max()) == 26
        weights = g.edge_weights({NeighborKind.FACE: 4.0, NeighborKind.EDGE: 2.0,
                                  NeighborKind.VERTEX: 1.0})
        assert set(weights.tolist()) == {4.0, 2.0, 1.0}


# ---------------------------------------------------------------------- #
# the vectorized builder against the per-block reference
# ---------------------------------------------------------------------- #


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
        mesh.remesh(RefinementTags(refine=block_keys(refine), coarsen=block_keys(coarsen)))
    return mesh


class TestEquivalence:
    @given(st.integers(0, 80))
    @settings(max_examples=30)
    def test_matches_reference_on_balanced_2d(self, seed):
        mesh = balanced_random_mesh(seed, dim=2)
        assert is_two_one_balanced(mesh.forest)
        ref = mesh_reference.build_neighbor_graph(mesh.forest)
        fast = build_neighbor_graph(mesh.forest)
        assert graphs_equal(ref, fast)

    @given(st.integers(0, 30))
    @settings(max_examples=10)
    def test_matches_reference_on_balanced_3d(self, seed):
        mesh = balanced_random_mesh(seed, dim=3)
        ref = mesh_reference.build_neighbor_graph(mesh.forest)
        fast = build_neighbor_graph(mesh.forest)
        assert graphs_equal(ref, fast)

    def test_uniform_grids(self):
        for shape, periodic in (((4, 4, 4), (False,) * 3),
                                ((4, 4, 4), (True,) * 3),
                                ((2, 3, 5), (False, True, False))):
            f = OctreeForest(RootGrid(shape, periodic=periodic))
            assert graphs_equal(mesh_reference.build_neighbor_graph(f),
                                build_neighbor_graph(f))

    def test_single_block(self):
        f = OctreeForest(RootGrid((1, 1, 1)))
        g = build_neighbor_graph(f)
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
        assert graphs_equal(build_neighbor_graph(f), mesh_reference.build_neighbor_graph(f))

    @given(st.integers(0, 60))
    @settings(max_examples=20)
    def test_matches_reference_on_random_forests(self, seed):
        # Per-block refine/coarsen walks, often deeper than 2:1 allows.
        f = random_forest(seed, n_ops=10, dim=2 + seed % 2)
        assert graphs_equal(build_neighbor_graph(f), mesh_reference.build_neighbor_graph(f))
