"""Unit + property tests for the octree forest."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mesh.geometry import BlockIndex, RootGrid
from repro.mesh.octree import OctreeForest
from repro.mesh.sfc import block_keys, sfc_sort_blocks
from tests.helpers import random_forest


class TestRefineCoarsen:
    def test_refine_replaces_leaf_with_children(self):
        f = OctreeForest(RootGrid((2, 2, 2)))
        b = next(iter(f.leaves()))
        kids = f.refine(b)
        assert len(kids) == 8
        assert b not in f
        assert all(k in f for k in kids)
        assert f.n_leaves == 15

    def test_refine_non_leaf_rejected(self):
        f = OctreeForest(RootGrid((2, 2)))
        b = next(iter(f.leaves()))
        f.refine(b)
        with pytest.raises(KeyError):
            f.refine(b)

    def test_refine_beyond_max_level_rejected(self):
        f = OctreeForest(RootGrid((1, 1)), max_level=0)
        with pytest.raises(ValueError):
            f.refine(BlockIndex(0, (0, 0)))

    def test_coarsen_restores_parent(self):
        f = OctreeForest(RootGrid((2, 2)))
        b = next(iter(f.leaves()))
        kids = f.refine(b)
        parent = f.coarsen(kids[0])
        assert parent == b
        assert b in f
        assert f.n_leaves == 4

    def test_coarsen_partial_siblings_rejected(self):
        f = OctreeForest(RootGrid((2, 2)), max_level=3)
        b = next(iter(f.leaves()))
        kids = f.refine(b)
        f.refine(kids[0])  # one sibling now internal
        with pytest.raises(ValueError):
            f.coarsen(kids[1])

    def test_coarsen_root_rejected(self):
        f = OctreeForest(RootGrid((2, 2)))
        with pytest.raises(ValueError):
            f.coarsen(next(iter(f.leaves())))


class TestTraversal:
    def test_dfs_covers_all_leaves_once(self):
        f = random_forest(0)
        dfs = f.leaves_dfs()
        assert len(dfs) == f.n_leaves
        assert len(set(dfs)) == len(dfs)

    @given(st.integers(0, 200))
    def test_dfs_order_equals_morton_sort(self, seed):
        """The paper's Fig. 5 property: octree DFS == Z-order SFC."""
        f = random_forest(seed)
        dfs = f.leaves_dfs()
        assert dfs == sfc_sort_blocks(dfs)

    @given(st.integers(0, 100))
    def test_random_forest_valid(self, seed):
        random_forest(seed).validate()

    def test_block_ids_sequential(self):
        f = random_forest(3)
        ids = f.ids_of(block_keys(f.leaves()))
        assert sorted(ids.tolist()) == list(range(f.n_leaves))


class TestQueries:
    def test_find_covering_leaf(self):
        f = OctreeForest(RootGrid((2, 2)), max_level=3)
        b = BlockIndex(0, (0, 0))
        kids = f.refine(b)
        # A deep descendant index resolves to its covering leaf.
        deep = kids[0].children()[0]
        assert f.find_covering_leaf(deep) == kids[0]
        # Outside domain -> None.
        assert f.find_covering_leaf(BlockIndex(0, (5, 5))) is None
        # Region of an internal node (refined) -> None.
        assert f.find_covering_leaf(b) is None
        # Refined 3-d forest: every finest-level cell resolves to the one
        # leaf that contains it.
        f3 = OctreeForest(RootGrid((2, 2, 2)), max_level=2)
        f3.refine(f3.refine(BlockIndex(0, (1, 0, 1)))[3])
        covered = {leaf: 0 for leaf in f3.leaves()}
        for x in range(8):
            for y in range(8):
                for z in range(8):
                    leaf = f3.find_covering_leaf(BlockIndex(2, (x, y, z)))
                    assert all(c >> (2 - leaf.level) == lc
                               for c, lc in zip((x, y, z), leaf.coords))
                    covered[leaf] += 1
        assert covered == {leaf: 8 ** (2 - leaf.level) for leaf in covered}

    def test_from_leaves_validates(self):
        root = RootGrid((2, 2))
        good = list(root.root_blocks())
        OctreeForest.from_leaves(root, good)
        bad = good + [BlockIndex(1, (0, 0))]  # overlaps root (0,0)
        with pytest.raises(AssertionError):
            OctreeForest.from_leaves(root, bad)
        for bad in (good[1:], good + [BlockIndex(0, (2, 0))]):  # gap; outside
            with pytest.raises(AssertionError):
                OctreeForest.from_leaves(root, bad)

    def test_copy_is_independent(self):
        f = OctreeForest(RootGrid((2, 2)), max_level=2)
        g = f.copy()
        f.refine(next(iter(f.leaves())))
        assert g.n_leaves == 4
        assert f.n_leaves == 7

    def test_anisotropic_root(self):
        f = OctreeForest(RootGrid((2, 4, 8)))
        assert f.n_leaves == 64
        f.validate()
