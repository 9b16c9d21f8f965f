"""Fig. 5 — octree, Z-order SFC, and contiguous rank assignment.

Reproduces the figure's structural claims on a 2D adaptively refined
mesh: mesh blocks correspond to octree leaves, sequential block IDs
follow a depth-first traversal identical to the Z-order curve, and the
baseline assigns contiguous ID ranges to ranks, preserving locality.
"""

import numpy as np

from repro.core import BaselinePolicy, contiguity_fraction, message_stats
from repro.mesh import (
    AmrMesh,
    RefinementTags,
    RootGrid,
    contiguous_ranges,
    morton_key,
    sfc_sort_blocks,
)


def _build_fig5_mesh() -> AmrMesh:
    mesh = AmrMesh(RootGrid((2, 2)), max_level=3)
    mesh.remesh(RefinementTags(refine=mesh.keys[:1]))
    mesh.remesh(RefinementTags(refine=mesh.keys[:1]))
    return mesh


def test_fig5_octree_sfc_structure(benchmark):
    mesh = benchmark.pedantic(_build_fig5_mesh, rounds=1, iterations=1)
    blocks = mesh.blocks
    print("\nFig 5 — octree + Z-order SFC example (2D):")
    print(f"  leaves: {len(blocks)}, levels: "
          f"{sorted(set(b.level for b in blocks))}")
    for bid, b in enumerate(blocks[:8]):
        print(f"  block id {bid}: level={b.level} coords={b.coords}")

    # DFS order == Z-order curve order.
    assert blocks == sfc_sort_blocks(blocks)
    max_level = max(b.level for b in blocks)
    keys = [morton_key(b, max_level) for b in blocks]
    assert keys == sorted(keys)

    # Contiguous ID ranges -> balanced counts + high locality.
    a = BaselinePolicy().place(np.ones(len(blocks)), 4).assignment
    counts = np.bincount(a, minlength=4)
    assert counts.max() - counts.min() <= 1
    # Each rank owns one contiguous ID range (Fig. 5's assignment rule).
    assert contiguous_ranges(a)
    assert contiguity_fraction(a) >= (len(blocks) - 4) / (len(blocks) - 1)
    ms = message_stats(mesh.neighbor_graph, a, ranks_per_node=2)
    print(f"  baseline on 4 ranks: counts={counts.tolist()}, "
          f"intra-rank pairs={ms.intra_rank}, cross-rank={ms.mpi_visible}")
    assert ms.intra_rank > 0  # locality actually captured
