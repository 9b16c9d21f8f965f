"""High-level AMR mesh facade combining octree, SFC, and neighbor graph.

:class:`AmrMesh` is the object the rest of the library works with: it
owns the octree forest, exposes its SFC-ordered block keys and geometry
arrays (views of the forest's per-generation
:class:`~repro.mesh.octree.LeafIndex`), caches the neighbor graph and
the :class:`~repro.mesh.geometry.BlockIndex` leaf list, and provides the
refinement entry point used by the simulation driver.  The keys are the
block identity every other layer uses; the leaf list is built only for
callers that ask for it.  Every remesh that changes the forest drops
all of those caches; each is rebuilt lazily on its next access.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from .geometry import BlockIndex, RootGrid
from .neighbors import NeighborGraph, build_neighbor_graph
from .octree import OctreeForest
from .refinement import RefinementTags, RemeshDelta, apply_tags

__all__ = ["AmrMesh"]


class AmrMesh:
    """Adaptively refined block mesh with cached derived structures.

    Parameters
    ----------
    root:
        Level-0 block decomposition.
    block_cells:
        Cells per dimension inside each block (every block has the same
        cell count regardless of level — paper §II-B).  Default ``16``
        matches the paper's ``16^3`` Sedov block size.
    max_level:
        Maximum refinement depth.
    domain_size:
        Physical extent of the domain per dimension; defaults to the
        root-grid shape (unit-size level-0 blocks).
    """

    def __init__(
        self,
        root: RootGrid,
        block_cells: int = 16,
        max_level: int = 10,
        domain_size: Sequence[float] | None = None,
    ) -> None:
        if block_cells < 1:
            raise ValueError("block_cells must be positive")
        self.root = root
        self.block_cells = block_cells
        self.forest = OctreeForest(root, max_level=max_level)
        self.domain_size = (
            tuple(float(s) for s in root.shape)
            if domain_size is None
            else tuple(float(s) for s in domain_size)
        )
        if len(self.domain_size) != root.dim:
            raise ValueError("domain_size must match dimensionality")
        self._blocks: List[BlockIndex] | None = None
        self._graph: NeighborGraph | None = None
        self.generation = 0  # bumped on every structural change

    # ------------------------------------------------------------------ #
    # derived structures (cached)
    # ------------------------------------------------------------------ #

    @property
    def dim(self) -> int:
        return self.root.dim

    @property
    def n_blocks(self) -> int:
        return self.forest.n_leaves

    @property
    def blocks(self) -> List[BlockIndex]:
        """Leaves in SFC (block-ID) order; cached until the mesh changes."""
        if self._blocks is None:
            self._blocks = self.forest.leaves_dfs()
        return self._blocks

    @property
    def keys(self) -> np.ndarray:
        """Packed block keys in SFC (block-ID) order, read-only."""
        return self.forest.index().keys

    @property
    def neighbor_graph(self) -> NeighborGraph:
        """Neighbor graph over SFC-ordered blocks; cached."""
        if self._graph is None:
            self._graph = build_neighbor_graph(self.forest)
        return self._graph

    def _geometry(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-block (coords, levels) arrays in SFC order, read-only."""
        index = self.forest.index()
        return index.coords, index.levels

    def levels(self) -> np.ndarray:
        """Refinement level per block in SFC order."""
        return self._geometry()[1]

    def bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """Physical ``(lo, hi)`` boxes per block in SFC order (vectorized)."""
        coords, levels = self._geometry()
        domain = np.asarray(self.domain_size)
        ext = np.asarray(self.root.shape, dtype=np.float64) * (
            2.0 ** levels[:, None]
        )
        width = domain / ext
        lo = coords * width
        return lo, lo + width

    def centers(self) -> np.ndarray:
        """Physical center coordinates per block in SFC order, ``(n, dim)``."""
        lo, hi = self.bounds()
        return 0.5 * (lo + hi)

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #

    def _invalidate(self) -> None:
        self._blocks = None
        self._graph = None
        self.generation += 1

    def remesh(self, tags: RefinementTags) -> RemeshDelta:
        """Apply refinement tags (2:1-balanced); returns the remesh delta.

        The returned :class:`RemeshDelta` still unpacks as the historical
        ``(n_refined, n_coarsened)`` tuple.  A delta that changed the
        forest invalidates every cached derived structure; a no-op keeps
        them.
        """
        delta = apply_tags(self.forest, tags)
        if delta.changed:
            self._invalidate()
        return delta

    def copy(self) -> "AmrMesh":
        clone = AmrMesh(
            self.root,
            block_cells=self.block_cells,
            max_level=self.forest.max_level,
            domain_size=self.domain_size,
        )
        clone.forest = self.forest.copy()
        return clone

    def __repr__(self) -> str:
        return (
            f"AmrMesh({self.forest!r}, block_cells={self.block_cells}, "
            f"gen={self.generation})"
        )
