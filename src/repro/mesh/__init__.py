"""Octree / space-filling-curve AMR mesh substrate.

Implements the mesh infrastructure block-based AMR codes (Parthenon,
Enzo-E, ALPS) rely on: a forest of octrees over an anisotropic root grid,
Z-order SFC block IDs via depth-first traversal, cross-level
face/edge/vertex neighbor discovery, and 2:1-balanced refinement.
"""

from .geometry import BlockIndex, RootGrid, block_bounds, child_offsets
from .hilbert import hilbert_encode, hilbert_key, hilbert_sort_blocks
from .mesh import AmrMesh
from .neighbors import NeighborGraph, NeighborKind, build_neighbor_graph
from .octree import OctreeForest
from .refinement import RefinementTags, RemeshDelta, apply_tags, enforce_two_one_balance
from .sfc import contiguous_ranges, morton_decode, morton_encode, morton_key, sfc_sort_blocks
from .sharding import ShardedBlockTable

__all__ = [
    "AmrMesh",
    "BlockIndex",
    "NeighborGraph",
    "NeighborKind",
    "OctreeForest",
    "RefinementTags",
    "RemeshDelta",
    "RootGrid",
    "ShardedBlockTable",
    "apply_tags",
    "block_bounds",
    "build_neighbor_graph",
    "child_offsets",
    "contiguous_ranges",
    "enforce_two_one_balance",
    "hilbert_encode",
    "hilbert_key",
    "hilbert_sort_blocks",
    "morton_decode",
    "morton_encode",
    "morton_key",
    "sfc_sort_blocks",
]
