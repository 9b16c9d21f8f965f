"""Unit + property tests for tagging and 2:1 balance enforcement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh import AmrMesh
from repro.mesh.geometry import BlockIndex, RootGrid
from repro.mesh.octree import OctreeForest
from repro.mesh.refinement import (
    RefinementTags,
    RemeshDelta,
    apply_tags,
    enforce_two_one_balance,
)
from repro.mesh.sfc import block_keys, unpack_block_keys

from tests.helpers import random_forest, tag_by_predicate, warmed_mesh
from tests.mesh_reference import apply_tags_reference, is_two_one_balanced
from tests.mesh_reference import enforce_two_one_balance as reference_closure


class TestTags:
    def test_conflicting_tags_rejected(self):
        b = BlockIndex(0, (0, 0))
        with pytest.raises(ValueError):
            RefinementTags(refine=block_keys([b]), coarsen=block_keys([b]))

    def test_overlap_among_mesh_keys_rejected(self):
        # Tags built from mesh key slices, the way the producers build
        # them, are checked too.
        mesh = AmrMesh(RootGrid((3, 3)), max_level=2)
        with pytest.raises(ValueError, match="both refine and coarsen"):
            RefinementTags(refine=mesh.keys[:5], coarsen=mesh.keys[4:])

    @pytest.mark.parametrize("field", ["refine", "coarsen"])
    def test_float_keys_rejected(self, field):
        with pytest.raises(ValueError, match=f"RefinementTags.{field}"):
            RefinementTags(**{field: np.array([1.0, 2.0])})

    @pytest.mark.parametrize("field", ["refine", "coarsen"])
    def test_2d_keys_rejected(self, field):
        with pytest.raises(ValueError, match=f"RefinementTags.{field}"):
            RefinementTags(**{field: np.zeros((2, 2), dtype=np.int64)})

    def test_block_index_set_rejected(self):
        with pytest.raises(ValueError, match="RefinementTags.refine"):
            RefinementTags(refine={BlockIndex(0, (0, 0))})

    def test_keys_held_sorted_and_distinct(self):
        tags = RefinementTags(refine=np.array([9, 3, 9], dtype=np.int32))
        assert tags.refine.dtype == np.int64 and tags.refine.tolist() == [3, 9]
        assert RefinementTags(coarsen=[]).coarsen.shape == (0,)

    def test_keys_that_are_not_leaves_are_dropped(self):
        mesh = AmrMesh(RootGrid((2, 2)), max_level=2)
        leaf = mesh.keys[1:2]
        child = block_keys([BlockIndex(1, (0, 0))])  # below a leaf
        other_dim = block_keys([BlockIndex(0, (0, 0, 0))])
        delta = mesh.remesh(
            RefinementTags(refine=np.concatenate([leaf, child, other_dim, [-1, 7]]))
        )
        assert delta.refined.tolist() == leaf.tolist()
        assert delta.coarsened.shape == (0,)


class TestBalanceClosure:
    def test_ripple_propagation(self):
        # Refine one corner twice, then tagging the level-2 block forces
        # its coarser neighbors to refine too.
        f = OctreeForest(RootGrid((2, 2)), max_level=3)
        k1 = f.refine(BlockIndex(0, (0, 0)))
        k2 = f.refine(k1[0])
        assert is_two_one_balanced(f)
        target = k2[0]  # level 2, adjacent to level-1 siblings only
        closure = unpack_block_keys(enforce_two_one_balance(f, block_keys([target])))
        assert target in closure
        # Refining level-2 forces no cascade here (neighbors are level 1).
        f2 = f.copy()
        for b in closure:
            f2.refine(b)
        assert is_two_one_balanced(f2)

    def test_cascade_needed(self):
        # Level-2 block adjacent to a level-1 leaf whose own neighbor is
        # level 0: refining the deepest forces a cascade.
        f = OctreeForest(RootGrid((4, 4)), max_level=4)
        f.refine(BlockIndex(0, (0, 0)))
        f.refine(BlockIndex(1, (0, 0)))
        assert is_two_one_balanced(f)
        closure = unpack_block_keys(
            enforce_two_one_balance(f, block_keys([BlockIndex(2, (1, 1))]))
        )
        f2 = f.copy()
        for b in sorted(closure, key=lambda x: (x.level, x.coords)):
            f2.refine(b)
        assert is_two_one_balanced(f2)
        assert len(closure) > 1  # the cascade pulled in coarser neighbors

    @given(st.integers(0, 40), st.integers(0, 6))
    def test_closure_keeps_balance_property(self, seed, n_tags):
        f = random_forest(seed, dim=2)
        if not is_two_one_balanced(f):
            return  # random forests may start unbalanced; skip those
        rng = np.random.default_rng(seed)
        leaves = sorted(f.leaves(), key=lambda b: (b.level, b.coords))
        refinable = [b for b in leaves if b.level < f.max_level]
        if not refinable:
            return
        tags = {refinable[int(rng.integers(len(refinable)))] for _ in range(n_tags)}
        closure = set(unpack_block_keys(enforce_two_one_balance(f, block_keys(tags))))
        assert tags & set(f.leaves()) <= closure | {
            b for b in tags if b.level >= f.max_level
        }
        for b in sorted(closure, key=lambda x: (x.level, x.coords)):
            f.refine(b)
        assert is_two_one_balanced(f)


class TestApplyTags:
    def test_refine_wins_over_coarsen(self):
        f = OctreeForest(RootGrid((2, 2)), max_level=2)
        kids = f.refine(BlockIndex(0, (0, 0)))
        tags = RefinementTags(refine=block_keys(kids[:1]), coarsen=block_keys(kids[1:]))
        n_ref, n_coarse = apply_tags(f, tags)
        assert n_ref == 1
        assert n_coarse == 0  # sibling set incomplete once kids[0] refined
        f.validate()

    def test_full_sibling_coarsen(self):
        f = OctreeForest(RootGrid((2, 2)), max_level=2)
        kids = f.refine(BlockIndex(0, (0, 0)))
        n_ref, n_coarse = apply_tags(f, RefinementTags(coarsen=block_keys(kids)))
        assert (n_ref, n_coarse) == (0, 1)
        assert BlockIndex(0, (0, 0)) in f

    def test_unsafe_coarsen_skipped(self):
        # Coarsening next to a freshly refined region would violate 2:1.
        f = OctreeForest(RootGrid((2, 2)), max_level=3)
        left = f.refine(BlockIndex(0, (0, 0)))
        right = f.refine(BlockIndex(0, (1, 0)))
        # Refine the left block's right children to level 2, then ask to
        # merge the right block back while tagging its left-adjacent fine
        # neighbors for refinement.
        tags = RefinementTags(
            refine=block_keys([left[1], left[3]]),  # children on the x+ side -> level 2
            coarsen=block_keys(right),
        )
        n_ref, n_coarse = apply_tags(f, tags)
        # The two tagged refinements cascade into the two level-0 blocks
        # diagonally/face-adjacent to left[3] (2:1 closure).
        assert n_ref == 4
        assert n_coarse == 0  # merging would abut level-2 leaves at level 0
        assert is_two_one_balanced(f)

    @given(st.integers(0, 40))
    def test_apply_random_tags_preserves_validity_and_balance(self, seed):
        f = OctreeForest(RootGrid((2, 2)), max_level=3)
        rng = np.random.default_rng(seed)
        for _ in range(4):
            leaves = sorted(f.leaves(), key=lambda b: (b.level, b.coords))
            refine = {
                b for b in leaves
                if b.level < f.max_level and rng.random() < 0.3
            }
            coarsen = {
                b for b in leaves
                if b.level > 0 and b not in refine and rng.random() < 0.4
            }
            apply_tags(
                f, RefinementTags(refine=block_keys(refine), coarsen=block_keys(coarsen))
            )
            f.validate()
            assert is_two_one_balanced(f)


class TestTagByPredicate:
    def test_predicates(self):
        f = OctreeForest(RootGrid((2, 2)), max_level=1)
        f.refine(BlockIndex(0, (1, 1)))
        tags = tag_by_predicate(
            f,
            should_refine=lambda b: b.coords == (0, 0),
            should_coarsen=lambda b: b.level > 0,
        )
        assert set(unpack_block_keys(tags.refine)) == {BlockIndex(0, (0, 0))}
        assert len(tags.coarsen) == 4

    def test_max_level_not_tagged_for_refine(self):
        f = OctreeForest(RootGrid((2, 2)), max_level=0)
        tags = tag_by_predicate(f, should_refine=lambda b: True)
        assert not tags.refine.size


# ---------------------------------------------------------------------- #
# RemeshDelta
# ---------------------------------------------------------------------- #


class TestRemeshDelta:
    def test_unpacks_as_historical_tuple(self):
        mesh = AmrMesh(RootGrid((2, 2)), max_level=2)
        target = mesh.blocks[0]
        n_ref, n_coars = mesh.remesh(RefinementTags(refine=block_keys([target])))
        assert (n_ref, n_coars) == (1, 0)

    def test_bool_and_counts(self):
        none = np.empty(0, dtype=np.int64)
        empty = RemeshDelta(refined=none, coarsened=none)
        assert not empty and not empty.changed
        one = RemeshDelta(refined=block_keys([BlockIndex(0, (0, 0))]), coarsened=none)
        assert one and one.n_refined == 1 and one.n_coarsened == 0

    def test_touched(self):
        b = BlockIndex(1, (0, 0))
        p = BlockIndex(0, (1, 0))
        d = RemeshDelta(refined=block_keys([b]), coarsened=block_keys([p]))
        # 2D: each event removes/adds 1 + 4 leaves
        assert d.touched == 2 * (1 + 4)


# ---------------------------------------------------------------------- #
# block_id maintenance
# ---------------------------------------------------------------------- #


class TestBlockId:
    def test_block_id_matches_list_index(self):
        mesh = warmed_mesh((2, 2), (False, False))
        mesh.remesh(RefinementTags(refine=mesh.keys[1:2]))
        ids = mesh.forest.ids_of(block_keys(mesh.blocks))
        for i, b in enumerate(mesh.blocks):
            assert ids[i] == i

    def test_block_id_rejects_non_leaf(self):
        mesh = warmed_mesh((2, 2), (False, False))
        target = mesh.keys[:1]
        mesh.remesh(RefinementTags(refine=target))
        # refined away — no longer a leaf, so it has no block ID
        assert mesh.forest.ids_of(target).size == 0


# ---------------------------------------------------------------------- #
# balance closure cost (deep cascade regression)
# ---------------------------------------------------------------------- #


class TestBalanceCascade:
    def deep_gradient_forest(self, max_level=5):
        """A corner-refined level gradient: the worst cascade shape."""
        mesh = AmrMesh(RootGrid((2, 2)), max_level=max_level)
        corner = BlockIndex(0, (0, 0))
        # stop one level short so the deepest corner leaf is refinable
        for _ in range(max_level - 1):
            apply_tags(mesh.forest, RefinementTags(refine=block_keys([corner])))
            corner = corner.children()[0]
        assert is_two_one_balanced(mesh.forest)
        # The domain-corner leaf only has same-level siblings; its
        # diagonal sibling abuts the coarser transition layers, so
        # refining it ripples down the whole gradient.
        far = BlockIndex(corner.level, tuple(c + 1 for c in corner.coords))
        assert far in mesh.forest
        return mesh.forest, far

    def test_deep_cascade_closure_correct(self):
        forest, corner = self.deep_gradient_forest()
        closed = unpack_block_keys(enforce_two_one_balance(forest, block_keys([corner])))
        assert corner in closed
        assert len(closed) > 1  # the refinement ripples down the gradient
        for b in closed:
            forest.refine(b)
        assert is_two_one_balanced(forest)

    def test_closure_probes_each_block_once(self, monkeypatch):
        import repro.mesh.refinement as refinement_mod

        forest, corner = self.deep_gradient_forest()
        probed = {"n": 0}
        real = refinement_mod.probe_regions

        def counting(index, root, level, ids):
            probed["n"] += len(ids)
            return real(index, root, level, ids)

        monkeypatch.setattr(refinement_mod, "probe_regions", counting)
        closed = unpack_block_keys(enforce_two_one_balance(forest, block_keys([corner])))
        # Linear closure: each block that enters the result is probed
        # exactly once, and level-0 blocks (no coarser neighbor) never.
        assert probed["n"] == sum(1 for b in closed if b.level > 0)


# ---------------------------------------------------------------------- #
# differential: vectorized closure and coarsen check vs the per-block
# reference
# ---------------------------------------------------------------------- #


def _random_tags(forest, rng, p_refine, p_coarsen) -> RefinementTags:
    leaves = sorted(forest.leaves(), key=lambda b: (b.level, b.coords))
    refine = {b for b in leaves if rng.random() < p_refine}
    coarsen = {b for b in leaves if b not in refine and rng.random() < p_coarsen}
    # Tags on internal nodes and on children of leaves are not leaves:
    # both implementations must drop them.
    for b in leaves[:: max(1, len(leaves) // 3)]:
        extra = b.parent() if b.level > 0 else b.children()[0]
        into, other = (refine, coarsen) if rng.random() < 0.5 else (coarsen, refine)
        if extra not in other:
            into.add(extra)
    return RefinementTags(refine=block_keys(refine), coarsen=block_keys(coarsen))


class TestDifferentialAgainstReference:
    @given(
        st.integers(0, 10_000),
        st.sampled_from([2, 3]),
        st.booleans(),
        st.floats(0.0, 0.4),
        st.floats(0.2, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_apply_tags_matches_reference(self, seed, dim, periodic, p_ref, p_coa):
        rng = np.random.default_rng(seed)
        max_level = 3 if dim == 3 else 4
        forest = OctreeForest(
            RootGrid((2, 1, 2)[:dim] if dim == 3 else (3, 2), periodic=(periodic,) * dim),
            max_level=max_level,
        )
        for _ in range(3 if dim == 3 else 5):
            tags = _random_tags(forest, rng, p_ref, p_coa)
            refined, coarsened = apply_tags_reference(forest, tags)
            delta = apply_tags(forest, tags)
            assert unpack_block_keys(delta.refined) == refined
            assert unpack_block_keys(delta.coarsened) == coarsened
            forest.validate()
        assert is_two_one_balanced(forest)

    @given(st.integers(0, 10_000), st.sampled_from([2, 3]), st.floats(0.05, 0.5))
    @settings(max_examples=40, deadline=None)
    def test_closure_matches_reference_on_unbalanced(self, seed, dim, p_ref):
        # Per-block walks may break 2:1 balance; the closure and the
        # coarsen check still agree with the reference there.
        forest = random_forest(seed, n_ops=8, dim=dim)
        tags = _random_tags(forest, np.random.default_rng(seed), p_ref, 0.7)
        assert set(unpack_block_keys(enforce_two_one_balance(forest, tags.refine))) == (
            reference_closure(forest, set(unpack_block_keys(tags.refine)))
        )
        refined, coarsened = apply_tags_reference(forest, tags)
        delta = apply_tags(forest, tags)
        assert (
            unpack_block_keys(delta.refined), unpack_block_keys(delta.coarsened)
        ) == (refined, coarsened)
