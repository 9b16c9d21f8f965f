"""Forest-of-octrees representation of a block-structured AMR mesh.

Each level-0 block of the :class:`~repro.mesh.geometry.RootGrid` is the
root of an octree (quadtree in 2D).  Only *leaves* participate in the
simulation (paper §V-A1).  Refining a leaf replaces it with its ``2^dim``
Morton-ordered children; coarsening replaces a full sibling set with the
parent.

The forest stores one mesh generation as a sorted int64 array of packed
block keys (:func:`~repro.mesh.sfc.pack_block_keys`: level, then the
Morton code of the block's coordinates).  The tree structure is implicit
in the key arithmetic — a parent's code is the child's code shifted
right by ``dim``, the children's codes are the parent's shifted left
with the child number in the low bits — so a whole remesh delta applies
as one array operation.  The depth-first (block-ID) order and the
lookup arrays the vectorized neighbor and remesh code share are built
once per generation as a :class:`LeafIndex`.  :class:`BlockIndex`
objects are built only at the API edge: :meth:`OctreeForest.leaves_dfs`
and the scalar queries, whose hash set is also built lazily.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Iterator, List, Set

import numpy as np

from .geometry import BlockIndex, RootGrid
from .sfc import (
    block_keys,
    key_codes,
    key_first_children,
    key_levels,
    morton_decode,
    pack_block_keys,
    unpack_block_keys,
)

__all__ = ["LeafIndex", "OctreeForest"]

@dataclasses.dataclass(frozen=True, eq=False)
class LeafIndex:
    """One forest generation's leaves in depth-first (block-ID) order.

    Block ``i`` has packed key ``keys[i]``, refinement level
    ``levels[i]`` and coordinates ``coords[i]``.  ``starts[i]`` is the
    Morton code of the block's first cell at ``depth``, the deepest leaf
    level; leaves never overlap, so ``starts`` ascends and sorting by it
    is the octree depth-first order (paper Fig. 5).  ``rank[j]`` is the
    block ID of the ``j``-th key of the forest's sorted key array.
    """

    dim: int
    depth: int
    keys: np.ndarray
    levels: np.ndarray
    coords: np.ndarray
    starts: np.ndarray
    rank: np.ndarray

    @classmethod
    def build(cls, sorted_keys: np.ndarray, dim: int) -> "LeafIndex":
        levels = key_levels(sorted_keys)
        codes = key_codes(sorted_keys)
        depth = int(levels.max()) if levels.size else 0
        starts = codes << (dim * (depth - levels))
        order = np.argsort(starts, kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(order.shape[0])
        keys = sorted_keys[order]
        index = cls(
            dim=dim,
            depth=depth,
            keys=keys,
            levels=levels[order],
            coords=morton_decode(codes[order], dim).reshape(-1, dim),
            starts=starts[order],
            rank=rank,
        )
        for a in (index.keys, index.levels, index.coords, index.starts, index.rank):
            a.setflags(write=False)
        return index

    @property
    def n(self) -> int:
        return int(self.keys.shape[0])

    def locate(self, level: int, codes: np.ndarray) -> np.ndarray:
        """Block ID of the leaf holding the first cell of each region.

        ``codes`` are Morton codes of in-domain regions at ``level``
        (at most ``depth``).  The leaf found is the region itself when
        its level equals ``level``, a leaf covering the whole region
        when it is coarser, and the region is subdivided when it is
        finer.
        """
        first = np.asarray(codes, dtype=np.int64) << np.int64(
            self.dim * (self.depth - level)
        )
        return np.searchsorted(self.starts, first, side="right") - 1


def _child_keys(keys: np.ndarray, dim: int) -> np.ndarray:
    """All children's keys of each key, ``(n, 2^dim)`` in Morton order."""
    first = key_first_children(keys)
    if (first < 0).any():
        raise ValueError("refinement beyond the packed-key level or coordinate budget")
    return first[:, None] | np.arange(1 << dim, dtype=np.int64)[None, :]


class OctreeForest:
    """Packed-key leaf-array octree forest with refine/coarsen operations.

    Parameters
    ----------
    root:
        Root grid (level-0 decomposition).
    max_level:
        Maximum refinement depth allowed (relative to level 0).
    """

    def __init__(self, root: RootGrid, max_level: int = 10) -> None:
        if max_level < 0:
            raise ValueError("max_level must be >= 0")
        self.root = root
        self.max_level = max_level
        coords = np.indices(root.shape).reshape(root.dim, -1).T
        self._set_keys(np.sort(pack_block_keys(coords, np.zeros(len(coords), np.int64))))

    def _set_keys(self, keys: np.ndarray) -> None:
        """Install a new generation: sorted unique keys; drop its caches."""
        keys.setflags(write=False)
        self._keys = keys
        self._index: LeafIndex | None = None
        self._blocks: List[BlockIndex] | None = None
        self._leaf_set: Set[BlockIndex] | None = None

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #

    @property
    def dim(self) -> int:
        return self.root.dim

    @property
    def n_leaves(self) -> int:
        return int(self._keys.shape[0])

    def index(self) -> LeafIndex:
        """This generation's :class:`LeafIndex` (built once, cached)."""
        if self._index is None:
            self._index = LeafIndex.build(self._keys, self.dim)
        return self._index

    def _leaves(self) -> Set[BlockIndex]:
        if self._leaf_set is None:
            self._leaf_set = set(self._dfs_blocks())
        return self._leaf_set

    def is_leaf(self, idx: BlockIndex) -> bool:
        return idx in self._leaves()

    def leaves(self) -> Iterator[BlockIndex]:
        """Iterate leaves (in depth-first order)."""
        return iter(self._dfs_blocks())

    def find_covering_leaf(self, idx: BlockIndex) -> BlockIndex | None:
        """Return the leaf equal to or an ancestor of ``idx``, if any."""
        if not self.root.contains(idx):
            return None
        leaves = self._leaves()
        probe = idx
        while True:
            if probe in leaves:
                return probe
            if probe.level == 0:
                return None
            probe = probe.parent()

    def ids_of(self, keys: np.ndarray) -> np.ndarray:
        """Block IDs of those packed ``keys`` that are leaves (others dropped)."""
        keys = np.asarray(keys, dtype=np.int64)
        pos = np.minimum(np.searchsorted(self._keys, keys), self.n_leaves - 1)
        return self.index().rank[pos[self._keys[pos] == keys]]

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #

    def apply_delta(self, refine: np.ndarray, coarsen: np.ndarray) -> None:
        """Refine leaves and merge sibling sets in one array operation.

        ``refine`` holds keys of leaves to split; ``coarsen`` keys of
        parents whose ``2^dim`` children are all leaves, none of them
        refined.  The caller guarantees both
        (:func:`~repro.mesh.refinement.apply_tags` does); only the depth
        limit is checked.
        """
        refine = np.asarray(refine, dtype=np.int64)
        coarsen = np.asarray(coarsen, dtype=np.int64)
        if refine.size and int(key_levels(refine).max()) >= self.max_level:
            raise ValueError(f"refinement beyond max_level={self.max_level}")
        removed = np.concatenate([refine, _child_keys(coarsen, self.dim).ravel()])
        keep = np.ones(self.n_leaves, dtype=bool)
        keep[np.searchsorted(self._keys, removed)] = False
        added = np.concatenate([_child_keys(refine, self.dim).ravel(), coarsen])
        self._set_keys(np.sort(np.concatenate([self._keys[keep], added])))

    def refine(self, idx: BlockIndex) -> List[BlockIndex]:
        """Split a leaf into its ``2^dim`` children; returns the children."""
        if not self.is_leaf(idx):
            raise KeyError(f"{idx} is not a leaf")
        if idx.level >= self.max_level:
            raise ValueError(f"refinement beyond max_level={self.max_level}")
        self.apply_delta(block_keys([idx]), np.empty(0, dtype=np.int64))
        return list(idx.children())

    def coarsen(self, idx: BlockIndex) -> BlockIndex:
        """Merge the full sibling set containing ``idx`` into its parent.

        All ``2^dim`` siblings must currently be leaves, otherwise the
        operation would create an overlapping leaf set.
        """
        if idx.level == 0:
            raise ValueError("cannot coarsen a root block")
        parent = idx.parent()
        missing = [s for s in parent.children() if not self.is_leaf(s)]
        if missing:
            raise ValueError(f"cannot coarsen {idx}: siblings {missing} are not leaves")
        self.apply_delta(np.empty(0, dtype=np.int64), block_keys([parent]))
        return parent

    def can_coarsen(self, idx: BlockIndex) -> bool:
        if idx.level == 0:
            return False
        return all(self.is_leaf(s) for s in idx.parent().children())

    # ------------------------------------------------------------------ #
    # traversal / ordering
    # ------------------------------------------------------------------ #

    def _dfs_blocks(self) -> List[BlockIndex]:
        if self._blocks is None:
            self._blocks = unpack_block_keys(self.index().keys)
        return self._blocks

    def leaves_dfs(self) -> List[BlockIndex]:
        """Leaves in depth-first (Morton-child) traversal order.

        This is the canonical block-ID order used by placement: root
        trees in Morton order of their coordinates, children in Morton
        order within a tree — exactly the Z-order SFC (paper Fig. 5).
        """
        return list(self._dfs_blocks())

    # ------------------------------------------------------------------ #
    # validation / construction
    # ------------------------------------------------------------------ #

    def validate(self) -> None:
        """Check the leaf set is a non-overlapping exact cover of the domain.

        Raises ``AssertionError`` on violation.
        """
        index = self.index()
        extent = np.asarray(self.root.shape, dtype=np.int64)[None, :] << index.levels[:, None]
        outside = np.nonzero((index.coords >= extent).any(axis=1))[0]
        if outside.size:
            raise AssertionError(f"leaf {self._dfs_blocks()[outside[0]]} outside domain")
        # Each leaf spans [start, start + size) of the depth-level Morton
        # cells; in DFS order these ranges must not overlap, and together
        # they must measure the whole domain.
        size = np.int64(1) << (self.dim * (index.depth - index.levels))
        overlap = np.nonzero(index.starts[1:] < index.starts[:-1] + size[:-1])[0]
        if overlap.size:
            blocks = self._dfs_blocks()
            raise AssertionError(f"{blocks[overlap[0]]} overlaps leaf {blocks[overlap[0] + 1]}")
        total = int(size.sum())
        domain_cells = self.root.n_root_blocks << (self.dim * index.depth)
        if total != domain_cells:
            raise AssertionError(f"leaf measure {total} != domain {domain_cells}")

    def copy(self) -> "OctreeForest":
        clone = OctreeForest.__new__(OctreeForest)
        clone.root = self.root
        clone.max_level = self.max_level
        clone._set_keys(self._keys)
        clone._index, clone._blocks = self._index, self._blocks
        return clone

    @classmethod
    def from_leaves(
        cls, root: RootGrid, leaves: Iterable[BlockIndex], max_level: int = 10
    ) -> "OctreeForest":
        """Build a forest from an explicit leaf set (validated)."""
        leaves = list(leaves)
        if any(len(b.coords) != root.dim for b in leaves):
            raise AssertionError("leaf dimensionality differs from the root grid")
        forest = cls(root, max_level)
        forest._set_keys(np.unique(block_keys(leaves)))
        forest.validate()
        return forest

    def __len__(self) -> int:
        return self.n_leaves

    def __contains__(self, idx: BlockIndex) -> bool:
        return self.is_leaf(idx)

    def __repr__(self) -> str:
        lvls, counts = np.unique(key_levels(self._keys), return_counts=True)
        return (
            f"OctreeForest(dim={self.dim}, root={self.root.shape}, "
            f"leaves={self.n_leaves}, "
            f"levels={dict(zip(lvls.tolist(), counts.tolist()))})"
        )

