"""Unit + property tests for cross-level neighbor discovery."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mesh.geometry import BlockIndex, RootGrid
from repro.mesh.neighbors import NeighborKind
from repro.mesh.octree import OctreeForest

from tests.helpers import random_forest
from tests.mesh_reference import build_neighbor_graph, find_neighbors


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
        g = build_neighbor_graph(f)
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
