"""Packed block keys and the array-keyed epoch path built on them.

A block key packs dim, level and the Morton code of a block's own
coordinates into one int64 (:mod:`repro.mesh.sfc`).  These tests pin
the key layer (round trip, parent / first-child shifts, the bit
budget) and check the two key-joined consumers against in-test
dictionary models of the ``BlockIndex``-keyed code they replaced: the
cost tracker (EWMA updates, ancestor fallback, checkpoint state) and
the remesh carry on every epoch pair of the 512-rank Sedov trajectory.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr import BlockCostTracker, carry_assignment
from repro.amr.driver import run_trajectory
from repro.amr.sedov import SedovWorkload, scaled_config
from repro.core import get_policy
from repro.mesh import AmrMesh, BlockIndex, OctreeForest, RefinementTags, RootGrid
from repro.mesh.neighbors import NeighborGraph
from repro.mesh.sfc import (
    block_key,
    block_keys,
    key_first_children,
    key_levels,
    key_parents,
    pack_block_keys,
    unpack_block_keys,
)
from repro.simnet.cluster import Cluster

#: per-dimension coordinate bits a key holds
COORD_BITS = {1: 21, 2: 21, 3: 18}


@st.composite
def block_indices(draw, max_level=31, coord_bits=None):
    dim = draw(st.integers(1, 3))
    bits = COORD_BITS[dim] if coord_bits is None else coord_bits[dim]
    level = draw(st.integers(0, max_level))
    coords = draw(st.tuples(*[st.integers(0, (1 << bits) - 1)] * dim))
    return BlockIndex(level, coords)


class TestKeyLayer:
    @given(st.lists(block_indices(), min_size=0, max_size=20))
    @settings(max_examples=60)
    def test_round_trip(self, blocks):
        keys = block_keys(blocks)
        assert keys.dtype == np.int64 and (keys >= 0).all()
        assert unpack_block_keys(keys) == blocks
        assert key_levels(keys).tolist() == [b.level for b in blocks]

    @given(st.lists(block_indices(), min_size=2, max_size=20, unique=True))
    @settings(max_examples=40)
    def test_distinct_blocks_distinct_keys(self, blocks):
        assert np.unique(block_keys(blocks)).shape[0] == len(blocks)

    @given(block_indices())
    @settings(max_examples=60)
    def test_parent_shift(self, b):
        parent = int(key_parents(np.asarray([block_key(b)]))[0])
        if b.level == 0:
            assert parent == -1
        else:
            assert parent == block_key(b.parent())

    @given(block_indices(max_level=30, coord_bits={1: 20, 2: 20, 3: 17}))
    @settings(max_examples=60)
    def test_first_child_shift(self, b):
        child = int(key_first_children(np.asarray([block_key(b)]))[0])
        assert child == block_key(b.children()[0])

    def test_first_child_beyond_budget_is_no_key(self):
        edge = [BlockIndex(4, (1 << 17, 0, 0)), BlockIndex(31, (0, 0))]
        assert key_first_children(block_keys(edge)).tolist() == [-1, -1]

    def test_keys_from_geometry_arrays_match_blocks(self, small_mesh3d):
        keys = pack_block_keys(*small_mesh3d._geometry())
        assert np.array_equal(keys, block_keys(small_mesh3d.blocks))

    @pytest.mark.parametrize(
        "block",
        [
            BlockIndex(0, (1 << 21,)),
            BlockIndex(3, (0, 1 << 21)),
            BlockIndex(2, (1 << 18, 0, 0)),
            BlockIndex(32, (0, 0)),
        ],
    )
    def test_out_of_budget_raises(self, block):
        with pytest.raises(ValueError):
            block_key(block)

    def test_bad_shapes_raise(self):
        with pytest.raises(ValueError):
            pack_block_keys(np.zeros((3, 4), dtype=np.int64), np.zeros(3))
        with pytest.raises(ValueError):
            pack_block_keys(np.zeros((3, 2), dtype=np.int64), np.zeros(2))
        with pytest.raises(ValueError):
            unpack_block_keys(np.asarray([5], dtype=np.int64))  # dim field 0


class DictTracker:
    """The dict-keyed tracker model: EWMA per BlockIndex, ancestor fallback."""

    def __init__(self, alpha=0.5, default_cost=1.0):
        self.alpha, self.default_cost, self.est = alpha, default_cost, {}

    def observe_all(self, blocks, measured):
        for b, m in zip(blocks, np.asarray(measured, dtype=np.float64)):
            m = float(m)
            prev = self.est.get(b)
            self.est[b] = m if prev is None else (1 - self.alpha) * prev + self.alpha * m

    def estimates(self, blocks):
        out = []
        for b in blocks:
            probe = b
            est = self.est.get(probe)
            while est is None and probe.level > 0:
                probe = probe.parent()
                est = self.est.get(probe)
            out.append(self.default_cost if est is None else est)
        return np.asarray(out, dtype=np.float64)


def _random_remesh(mesh, rng):
    blocks = mesh.blocks
    refine, coarsen = [], []
    for i in rng.choice(len(blocks), size=max(1, len(blocks) // 6), replace=False):
        b = blocks[int(i)]
        if rng.random() < 0.5:
            refine.append(b)
        elif b.level > 0:
            coarsen.append(b)
    mesh.remesh(RefinementTags(refine=block_keys(refine), coarsen=block_keys(coarsen)))


def _probes(mesh, rng):
    """Current leaves plus ancestors, descendants and unknown blocks."""
    blocks = list(mesh.blocks)
    extra = []
    for i in rng.choice(len(blocks), size=min(8, len(blocks)), replace=False):
        b = blocks[int(i)]
        extra.append(b.children()[int(rng.integers(4))].children()[0])
        if b.level > 0:
            extra.append(b.parent())
    extra.append(BlockIndex(0, (7, 7)))
    return blocks + extra


def _state_dict(state):
    """A tracker's (keys, values) state as the dict model's table."""
    keys, vals = state
    assert keys.dtype == np.int64 and vals.dtype == np.float64
    assert (np.diff(keys) > 0).all()
    return dict(zip(unpack_block_keys(keys), vals.tolist()))


class TestTrackerParity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_dict_model_across_remeshes(self, seed):
        rng = np.random.default_rng(seed)
        mesh = AmrMesh(RootGrid((2, 2)), max_level=4)
        ref = DictTracker(alpha=0.3, default_cost=2.0)
        arr = BlockCostTracker(alpha=0.3, default_cost=2.0)
        for step in range(25):
            blocks = list(mesh.blocks)
            # A subset, in shuffled order, some blocks twice.
            pick = rng.choice(len(blocks), size=len(blocks) + 3)
            seen = [blocks[int(i)] for i in pick]
            measured = rng.lognormal(0.0, 0.5, size=len(seen))
            ref.observe_all(seen, measured)
            arr.observe_all(block_keys(seen), measured)
            probes = _probes(mesh, rng)
            assert np.array_equal(
                arr.estimates(block_keys(probes)), ref.estimates(probes)
            )
            assert len(arr) == len(ref.est)
            _random_remesh(mesh, rng)
        assert _state_dict(arr.state()) == ref.est

    def test_coarsened_block_reappears_with_its_history(self):
        parent = BlockIndex(1, (1, 1))
        kids = list(parent.children())
        ref, arr = DictTracker(), BlockCostTracker()
        for t, ids in ((ref, list), (arr, block_keys)):
            t.observe_all(ids([parent]), [4.0])                      # level 1
            t.observe_all(ids(kids), [1.0, 2.0, 3.0, 5.0])           # refined
            t.observe_all(ids([k.children()[0] for k in kids[:2]]),  # refined again
                          [7.0, 9.0])
            t.observe_all(ids([parent]), [6.0])                      # coarsened back
        grandkids = [k.children()[3] for k in kids]
        probe = [parent] + kids + grandkids + [parent.parent()]
        assert np.array_equal(arr.estimates(block_keys(probe)), ref.estimates(probe))
        assert arr.estimates(block_keys([parent]))[0] == 0.5 * 4.0 + 0.5 * 6.0

    def test_state_round_trip(self):
        rng = np.random.default_rng(7)
        mesh = AmrMesh(RootGrid((2, 2, 2)), max_level=3)
        ref, arr = DictTracker(), BlockCostTracker()
        for _ in range(6):
            measured = rng.exponential(1.0, size=mesh.n_blocks)
            ref.observe_all(mesh.blocks, measured)
            arr.observe_all(mesh.keys, measured)
            _random_remesh(mesh, rng)
        state = arr.state()
        assert _state_dict(state) == ref.est
        restored = BlockCostTracker()
        restored.load_state(state)
        assert len(restored) == len(arr)
        state[1][:] = -1.0          # the restored table owns its arrays
        assert _state_dict(restored.state()) == ref.est
        # state() hands out copies: mutating one leaves the tracker intact
        arr.state()[1][:] = -1.0
        assert _state_dict(arr.state()) == ref.est
        measured = rng.exponential(1.0, size=mesh.n_blocks)
        ref.observe_all(mesh.blocks, measured)
        for t in (arr, restored):
            t.observe_all(mesh.keys, measured)
        probes = list(mesh.blocks)
        assert np.array_equal(restored.estimates(mesh.keys), ref.estimates(probes))
        assert np.array_equal(arr.estimates(mesh.keys), ref.estimates(probes))

    def test_forget_except_keeps_only_live(self):
        blocks = [BlockIndex(0, (i, 0)) for i in range(4)]
        arr = BlockCostTracker()
        arr.observe_all(block_keys(blocks), [1.0, 2.0, 3.0, 4.0])
        arr.forget_except(block_keys([blocks[1], blocks[3]]))
        assert _state_dict(arr.state()) == {blocks[1]: 2.0, blocks[3]: 4.0}
        arr.forget_except(block_keys([blocks[3]]))
        assert _state_dict(arr.state()) == {blocks[3]: 4.0}

    def test_bad_measurements_rejected(self):
        arr = BlockCostTracker()
        blocks = block_keys([BlockIndex(0, (0,)), BlockIndex(0, (1,))])
        with pytest.raises(ValueError):
            arr.observe_all(blocks, [1.0, -1.0])
        with pytest.raises(ValueError):
            arr.observe_all(blocks, [1.0])
        assert len(arr) == 0


def _dict_carry(old_blocks, old_assignment, new_blocks):
    """The dict-keyed carry model: same block, parent, first child."""
    owner = {b: int(r) for b, r in zip(old_blocks, old_assignment)}
    out = np.full(len(new_blocks), -1, dtype=np.int64)
    for i, b in enumerate(new_blocks):
        r = owner.get(b)
        if r is None and b.level > 0:
            r = owner.get(b.parent())
        if r is None:
            r = owner.get(b.children()[0])
        if r is not None:
            out[i] = r
    return out


@pytest.fixture(scope="module")
def sedov_512():
    return SedovWorkload(scaled_config(512, scale=8, steps=300)).full_trajectory()


class TestCarryParity:
    def test_epoch_keys_are_the_blocks_keys(self, sedov_512):
        root = RootGrid(scaled_config(512, scale=8).root_shape)
        for ep in sedov_512:
            forest = OctreeForest.from_leaves(root, unpack_block_keys(ep.keys))
            assert np.array_equal(ep.keys, block_keys(forest.leaves_dfs()))

    def test_every_epoch_pair_of_sedov_512(self, sedov_512):
        changed = 0
        for prev, cur in zip(sedov_512, sedov_512[1:]):
            old = get_policy("lpt").place(prev.base_costs, 512).assignment
            # Holes from an eviction remap must carry through unchanged.
            old = np.where(np.arange(old.shape[0]) % 97 == 5, -1, old)
            want = _dict_carry(
                unpack_block_keys(prev.keys), old, unpack_block_keys(cur.keys)
            )
            assert np.array_equal(carry_assignment(prev.keys, old, cur.keys), want)
            changed += not np.array_equal(prev.keys, cur.keys)
        assert changed >= 5   # the trajectory refines and coarsens

    def test_repeated_old_block_last_owner_wins(self):
        a, b = BlockIndex(0, (0, 0)), BlockIndex(0, (1, 0))
        old = [a, b, a]
        assignment = np.array([1, 2, 3])
        new = [a, b, a.children()[1], BlockIndex(0, (5, 5))]
        want = _dict_carry(old, assignment, new)
        carried = carry_assignment(block_keys(old), assignment, block_keys(new))
        assert carried.tolist() == want.tolist()

    def test_empty_sides(self):
        a, none = block_keys([BlockIndex(0, (0, 0))]), np.empty(0, dtype=np.int64)
        assert carry_assignment(none, none, a).tolist() == [-1]
        assert carry_assignment(a, np.array([4]), none).shape == (0,)


class TestSweepPathBuildsNoBlockIndex:
    def test_trajectory_and_cplx_arm(self, monkeypatch):
        """The sweep's trajectory and one placement arm pass keys only:
        every key-to-:class:`BlockIndex` entry point is made to raise."""

        def refuse(*args, **kwargs):
            raise AssertionError("the sweep path built a BlockIndex")

        for name, module in list(sys.modules.items()):
            if name.startswith("repro.") and hasattr(module, "unpack_block_keys"):
                monkeypatch.setattr(module, "unpack_block_keys", refuse)
        monkeypatch.setattr(AmrMesh, "blocks", property(refuse))
        monkeypatch.setattr(NeighborGraph, "blocks", property(refuse))
        monkeypatch.setattr(BlockIndex, "__post_init__", refuse)
        epochs = SedovWorkload(scaled_config(512, scale=8, steps=300)).full_trajectory()
        summary = run_trajectory(get_policy("cplx:50"), epochs, Cluster(n_ranks=512))
        assert len(epochs) == summary.n_epochs == 21
        assert summary.final_blocks == len(epochs[-1].keys)
