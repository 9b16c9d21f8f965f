"""Tests for the AmrMesh facade: caching, geometry, remesh plumbing."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr.sedov import SedovWorkload, scaled_config
from repro.mesh import (
    AmrMesh,
    RefinementTags,
    RootGrid,
    block_bounds,
    build_neighbor_graph,
)
from repro.mesh.sfc import block_keys, unpack_block_keys

from tests.helpers import tag_by_predicate, warmed_mesh
from tests.mesh_reference import is_two_one_balanced


def assert_mesh_consistent(mesh: AmrMesh) -> None:
    """Every cached derived structure matches a from-scratch rebuild:
    blocks, edge rows in the same order, and kinds."""
    graph, rebuilt = mesh.neighbor_graph, build_neighbor_graph(mesh.forest)
    assert graph.blocks == rebuilt.blocks
    assert np.array_equal(graph.edges, rebuilt.edges)
    assert np.array_equal(graph.kinds, rebuilt.kinds)
    assert mesh.blocks == mesh.forest.leaves_dfs()
    assert mesh.blocks == mesh.neighbor_graph.blocks
    ids = mesh.forest.ids_of(block_keys(mesh.blocks))
    for i, b in enumerate(mesh.blocks):
        assert ids[i] == i
    coords, levels = mesh._geometry()
    assert np.array_equal(
        coords, np.asarray([b.coords for b in mesh.blocks], dtype=np.int64)
    )
    assert np.array_equal(
        levels, np.asarray([b.level for b in mesh.blocks], dtype=np.int64)
    )


def random_tags(mesh: AmrMesh, rng, p_refine=0.25, p_coarsen=0.25) -> RefinementTags:
    leaves = sorted(mesh.forest.leaves(), key=lambda b: (b.level, b.coords))
    refine = {
        b for b in leaves
        if b.level < mesh.forest.max_level and rng.random() < p_refine
    }
    coarsen = {
        b for b in leaves
        if b.level > 0 and b not in refine and rng.random() < p_coarsen
    }
    return RefinementTags(refine=block_keys(refine), coarsen=block_keys(coarsen))


class TestGeometryCaches:
    def test_vectorized_bounds_match_scalar(self, small_mesh3d):
        lo, hi = small_mesh3d.bounds()
        for i, b in enumerate(small_mesh3d.blocks):
            slo, shi = block_bounds(b, small_mesh3d.root, small_mesh3d.domain_size)
            assert np.allclose(lo[i], slo)
            assert np.allclose(hi[i], shi)

    def test_centers_inside_bounds(self, small_mesh3d):
        lo, hi = small_mesh3d.bounds()
        c = small_mesh3d.centers()
        assert (c > lo).all() and (c < hi).all()

    def test_cache_invalidation_on_remesh(self, mesh2d):
        blocks_before = list(mesh2d.blocks)
        gen = mesh2d.generation
        target = [b for b in mesh2d.blocks if b.level == 1][0]
        mesh2d.remesh(RefinementTags(refine=block_keys([target])))
        assert mesh2d.generation == gen + 1
        assert list(mesh2d.blocks) != blocks_before
        assert mesh2d.levels().shape[0] == mesh2d.n_blocks

    def test_noop_remesh_keeps_generation(self, mesh2d):
        gen = mesh2d.generation
        mesh2d.remesh(RefinementTags())
        assert mesh2d.generation == gen


class TestFacade:
    def test_domain_size_validation(self):
        with pytest.raises(ValueError):
            AmrMesh(RootGrid((2, 2)), domain_size=(1.0, 2.0, 3.0))
        with pytest.raises(ValueError):
            AmrMesh(RootGrid((2, 2)), block_cells=0)

    def test_physical_domain(self):
        mesh = AmrMesh(RootGrid((2, 4)), domain_size=(1.0, 2.0))
        lo, hi = mesh.bounds()
        assert np.allclose(lo.min(axis=0), [0, 0])
        assert np.allclose(hi.max(axis=0), [1.0, 2.0])

    def test_block_id_lookup(self, mesh2d):
        ids = mesh2d.forest.ids_of(block_keys(mesh2d.blocks))
        for i, b in enumerate(mesh2d.blocks):
            assert ids[i] == i

    def test_copy_independent(self, mesh2d):
        clone = mesh2d.copy()
        target = [b for b in mesh2d.blocks if b.level == 1][0]
        mesh2d.remesh(RefinementTags(refine=block_keys([target])))
        assert clone.n_blocks != mesh2d.n_blocks

    def test_remesh_by_predicate(self):
        mesh = AmrMesh(RootGrid((2, 2)), max_level=2)
        n_ref, _ = mesh.remesh(
            tag_by_predicate(mesh.forest, lambda b: b.coords == (0, 0))
        )
        assert n_ref == 1
        assert mesh.n_blocks == 7
        assert is_two_one_balanced(mesh.forest)

    def test_neighbor_graph_block_order_matches(self, small_mesh3d):
        g = small_mesh3d.neighbor_graph
        assert g.blocks == small_mesh3d.blocks


class TestRemeshConsistency:
    """After every remesh, each cache equals a fresh rebuild."""

    @given(st.integers(0, 200))
    @settings(max_examples=40, deadline=None)
    def test_random_sequences_2d(self, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(int(rng.integers(1, 4)) for _ in range(2))
        periodic = tuple(bool(rng.integers(2)) for _ in range(2))
        mesh = warmed_mesh(shape, periodic)
        for _ in range(4):
            mesh.remesh(random_tags(mesh, rng))
            assert_mesh_consistent(mesh)
        assert is_two_one_balanced(mesh.forest)

    @given(st.integers(0, 60))
    @settings(max_examples=12, deadline=None)
    def test_random_sequences_3d(self, seed):
        rng = np.random.default_rng(1000 + seed)
        periodic = tuple(bool(rng.integers(2)) for _ in range(3))
        mesh = warmed_mesh((2, 2, 2), periodic)
        for _ in range(3):
            mesh.remesh(random_tags(mesh, rng))
            assert_mesh_consistent(mesh)

    def test_noop_remesh_preserves_graph_object(self):
        mesh = warmed_mesh((2, 2), (False, False))
        graph = mesh.neighbor_graph
        delta = mesh.remesh(RefinementTags())
        assert not delta.changed
        assert mesh.neighbor_graph is graph


def trajectory_digest(epochs) -> str:
    """SHA-256 over every epoch's schedule, blocks, base costs and graph."""
    h = hashlib.sha256()
    for ep in epochs:
        head = [ep.index, ep.step_start, ep.n_steps, ep.n_refined, ep.n_coarsened]
        head += [x for b in unpack_block_keys(ep.keys) for x in (b.level, *b.coords)]
        h.update(np.asarray(head, dtype=np.int64).tobytes())
        h.update(np.asarray(ep.base_costs, dtype=np.float64).tobytes())
        h.update(np.asarray(ep.graph.edges, dtype=np.int64).tobytes())
        h.update(np.asarray(ep.graph.kinds, dtype=np.int64).tobytes())
    return h.hexdigest()


#: Digest of the 512-rank, 120-step reduced Sedov trajectory, recorded
#: before the incremental remesh path was removed (it was produced by
#: both that path and the full rebuild).
SEDOV_512_120_DIGEST = (
    "fc06e9813e0597ec2c5e34b20165e6e71d104b68b2f25f2a9136cc861e041a03"
)


class TestSedovTrajectoryDigest:
    def test_pinned_digest(self):
        epochs = SedovWorkload(scaled_config(512, scale=8, steps=120)).full_trajectory()
        assert len(epochs) == 12 and len(epochs[-1].keys) == 2472
        assert trajectory_digest(epochs) == SEDOV_512_120_DIGEST
