"""Pinned digests of meshes deeper than the Sedov sweep's ``max_level=1``.

At ``max_level=1`` the 2:1 closure and the coarsen check never reject
anything, so the Sedov digests alone do not cover them.  These runs
refine to levels 2-4 and coarsen back.  Each digest hashes, in order,
every remesh delta (refined leaves, then merged parents, as
``(level, *coords)`` rows) and every epoch's or step's leaves, neighbor
edges and kinds.  Deltas and leaves arrive as packed keys and are
decoded to rows here.  The constants were recorded before the forest
moved to packed-key arrays and must not change.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.amr.cooling import CoolingConfig, CoolingWorkload
from repro.amr.sedov import SedovWorkload, scaled_config
from repro.bench.commbench import random_refined_mesh
from repro.mesh import AmrMesh, RefinementTags, RootGrid
from repro.mesh.sfc import block_keys, unpack_block_keys


def _rows(keys) -> bytes:
    flat = [x for b in unpack_block_keys(keys) for x in (b.level, *b.coords)]
    return np.asarray(flat, dtype=np.int64).tobytes()


class _Digest:
    """Running SHA-256 over remesh deltas and mesh snapshots."""

    def __init__(self) -> None:
        self.h = hashlib.sha256()

    def delta(self, delta) -> None:
        self.h.update(b"delta")
        self.h.update(_rows(delta.refined))
        self.h.update(b"|")
        self.h.update(_rows(delta.coarsened))

    def mesh(self, blocks, graph) -> None:
        self.h.update(b"mesh")
        self.h.update(_rows(blocks))
        self.h.update(np.asarray(graph.edges, dtype=np.int64).tobytes())
        self.h.update(np.asarray(graph.kinds, dtype=np.int64).tobytes())

    def hexdigest(self) -> str:
        return self.h.hexdigest()


@pytest.fixture
def digest(monkeypatch):
    """A digest that also records every ``AmrMesh.remesh`` delta."""
    d = _Digest()
    remesh = AmrMesh.remesh

    def recording(self, tags):
        delta = remesh(self, tags)
        d.delta(delta)
        return delta

    monkeypatch.setattr(AmrMesh, "remesh", recording)
    return d


def _trajectory(d: _Digest, epochs) -> None:
    for ep in epochs:
        d.mesh(ep.keys, ep.graph)


def _random_sequence(d: _Digest, periodic: bool) -> int:
    """A 2-d refine/coarsen walk to ``max_level=4``; returns the leaf count."""
    rng = np.random.default_rng(2024)
    mesh = AmrMesh(RootGrid((3, 2), periodic=(periodic, periodic)), max_level=4)
    for _ in range(16):
        leaves = mesh.blocks
        refine = {
            b for b in leaves
            if b.level < mesh.forest.max_level and rng.random() < 0.3
        }
        coarsen = {
            b for b in leaves
            if b.level > 0 and b not in refine and rng.random() < 0.6
        }
        mesh.remesh(RefinementTags(refine=block_keys(refine), coarsen=block_keys(coarsen)))
        d.mesh(mesh.keys, mesh.neighbor_graph)
    return mesh.n_blocks


#: Cooling trajectory, 64 ranks on a 4x4x4 root, max_level=2, 300 steps.
COOLING_DIGEST = (
    "8a49236bcd7a164e04b68cfb849bb02f0c17f4df285212375f196bce12209c10"
)
#: commbench.random_refined_mesh(128 ranks, 4 blocks/rank, max_level=2).
COMMBENCH_DIGESTS = {
    3: "e4eb23dacb84d63dba218be6f22b22cb8807fc529aa474947bfc52bad40b19b9",
    11: "b7f28413b3e4c005e8f6c521eef468e383486a300266c60febd57a7b7f65d97e",
}
#: Reduced Sedov (4x4x2 root, 60 steps) at max_level=3.
SEDOV_DEEP_DIGEST = (
    "a109d93c13c2fd91b89b58d71bfa7740f0c72b89d662a681adde7401ee5db4d1"
)
#: 2-d random walk at max_level=4, periodic and not.
RANDOM_2D_DIGESTS = {
    True: "34e729dd8f1dcc6976b9a007760dc83ceafd756ebd597e10f5556b7ba38a79b0",
    False: "e01e3235fe35d65611ed22084368ab1c9645b9f885beab769b14bffe40025015",
}


class TestDeepMeshPins:
    def test_cooling_trajectory(self, digest):
        cfg = CoolingConfig(n_ranks=64, root_shape=(4, 4, 4), t_total=300)
        epochs = CoolingWorkload(cfg).full_trajectory()
        assert len(epochs) == 3 and len(epochs[0].keys) == 1205
        _trajectory(digest, epochs)
        assert digest.hexdigest() == COOLING_DIGEST

    @pytest.mark.parametrize("seed", sorted(COMMBENCH_DIGESTS))
    def test_commbench_random_refined_mesh(self, digest, seed):
        mesh = random_refined_mesh(128, 4.0, np.random.default_rng(seed))
        digest.mesh(mesh.keys, mesh.neighbor_graph)
        assert digest.hexdigest() == COMMBENCH_DIGESTS[seed]

    def test_sedov_max_level_3(self, digest):
        cfg = dataclasses.replace(
            scaled_config(512, scale=8, steps=60),
            n_ranks=32, mesh_cells=(8, 8, 4), block_cells=2, max_level=3,
        )
        epochs = SedovWorkload(cfg).full_trajectory()
        assert len(epochs) == 10 and len(epochs[-1].keys) == 3112
        assert any(ep.n_coarsened for ep in epochs)
        _trajectory(digest, epochs)
        assert digest.hexdigest() == SEDOV_DEEP_DIGEST

    @pytest.mark.parametrize("periodic", [True, False])
    def test_random_2d_max_level_4(self, digest, periodic):
        assert _random_sequence(digest, periodic) > 1000
        assert digest.hexdigest() == RANDOM_2D_DIGESTS[periodic]
