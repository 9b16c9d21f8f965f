"""Neighbor kinds, the neighbor graph and its vectorized discovery.

Each block communicates ghost (boundary) data with up to 26 neighbors in
3D — across faces, edges, and vertices (paper §II-B).  With adaptive
refinement a neighbor may sit at a coarser or finer level; a single face
of a block can abut up to ``2^(dim-1)`` finer blocks.  A pair of blocks
may touch through several directions (e.g. a large coarse block touching
both the face and an edge of a fine block); the pair is classified by
its strongest contact (face > edge > vertex), matching how
boundary-exchange message sizes are chosen.

Discovery probes, for every leaf and direction
``d in {-1,0,1}^dim \\ {0}``, the same-level region next to it.  A
leaf equal to or covering that region is a neighbor.  A subdivided
region needs no descent: each finer leaf touching the probing block
across ``d`` lies on the region's near side, so its own probe across
``-d`` (same contact kind) falls inside the probing block, which covers
it.  Probing from both ends therefore finds every pair with its
strongest kind, with or without 2:1 balance.

All of it runs on one generation's :class:`~repro.mesh.octree.LeafIndex`,
with no per-block objects (Schornbaum & Rüde keep their block forest as
integer IDs the same way).  :func:`probe_regions` turns a batch of
same-level blocks into the Morton codes of their wrapped neighbor
regions, and :meth:`~repro.mesh.octree.LeafIndex.locate` resolves a
whole batch with one ``searchsorted``: the leaf holding a region's first
cell is the region itself, a coarser leaf covering it, or — when finer —
proof that the region is subdivided.  The graph builder here and the
2:1 closure and coarsen check in :mod:`repro.mesh.refinement` share
these two steps.
"""

from __future__ import annotations

import enum
import functools
import itertools
from typing import Dict, List, Tuple

import numpy as np

from .geometry import BlockIndex, RootGrid
from .octree import LeafIndex, OctreeForest
from .sfc import spread_bits, unpack_block_keys

__all__ = [
    "NeighborKind",
    "NeighborGraph",
    "build_neighbor_graph",
    "directions",
    "kind_weight_table",
    "probe_regions",
]


class NeighborKind(enum.IntEnum):
    """Contact dimensionality class; lower value = larger shared boundary."""

    FACE = 1
    EDGE = 2
    VERTEX = 3

    @staticmethod
    def from_direction(d: Tuple[int, ...]) -> "NeighborKind":
        nz = sum(1 for x in d if x != 0)
        if nz < 1 or nz > 3:
            raise ValueError(f"invalid direction {d}")
        return NeighborKind(nz)


class NeighborGraph:
    """Immutable neighbor graph over the SFC-ordered leaves of a mesh.

    Attributes
    ----------
    keys:
        Leaves in block-ID (SFC) order, as packed int64 block keys
        (:func:`~repro.mesh.sfc.pack_block_keys`).
    edges:
        ``(m, 2)`` int64 array of block-ID pairs, each undirected pair
        stored once with ``edges[i, 0] < edges[i, 1]``.
    kinds:
        ``(m,)`` int8 array of :class:`NeighborKind` values per edge.

    :attr:`blocks`, the leaves as :class:`BlockIndex` values, is decoded
    from ``keys`` on first access.
    """

    def __init__(self, keys: np.ndarray, edges: np.ndarray, kinds: np.ndarray) -> None:
        self.keys = keys
        self.edges = edges
        self.kinds = kinds
        self.n_blocks = int(keys.shape[0])
        self._blocks: List[BlockIndex] | None = None
        self._adj: List[List[int]] | None = None
        self._weights: Dict[tuple, np.ndarray] = {}

    @property
    def blocks(self) -> List[BlockIndex]:
        """Leaves in block-ID order, decoded from :attr:`keys` once."""
        if self._blocks is None:
            self._blocks = unpack_block_keys(self.keys)
        return self._blocks

    @property
    def n_edges(self) -> int:
        return int(self.edges.shape[0])

    def adjacency(self) -> List[List[int]]:
        """Per-block neighbor ID lists (built lazily, cached)."""
        if self._adj is None:
            adj: List[List[int]] = [[] for _ in range(self.n_blocks)]
            for (a, b) in self.edges:
                adj[int(a)].append(int(b))
                adj[int(b)].append(int(a))
            self._adj = adj
        return self._adj

    def degree(self) -> np.ndarray:
        """Neighbor count per block (≤ 26 in 3D for a 2:1-balanced mesh
        without refinement-level fan-out; may exceed 26 across levels)."""
        deg = np.zeros(self.n_blocks, dtype=np.int64)
        np.add.at(deg, self.edges[:, 0], 1)
        np.add.at(deg, self.edges[:, 1], 1)
        return deg

    def edge_weights(self, weights_by_kind: Dict[NeighborKind, float]) -> np.ndarray:
        """Map per-edge kinds to communication volumes (bytes/messages).

        Cached per distinct weight table; the returned array is read-only.
        """
        key = tuple(sorted((int(k), float(w)) for k, w in weights_by_kind.items()))
        w = self._weights.get(key)
        if w is None:
            w = kind_weight_table(weights_by_kind)[self.kinds]
            w.setflags(write=False)
            self._weights[key] = w
        return w


def kind_weight_table(weights_by_kind: Dict[NeighborKind, float]) -> np.ndarray:
    """Per-kind weights as a table indexed by :class:`NeighborKind`
    value; kinds the mapping leaves out weigh 0."""
    table = np.zeros(int(max(NeighborKind)) + 1, dtype=np.float64)
    for k, w in weights_by_kind.items():
        table[int(k)] = float(w)
    return table


@functools.lru_cache(maxsize=None)
def directions(dim: int) -> Tuple[np.ndarray, np.ndarray]:
    """Probe directions of a ``dim``-d mesh: the ``(n_dir, dim)``
    offsets, and each one's :class:`NeighborKind` value (its nonzero
    count).  Both arrays are read-only."""
    dirs = np.asarray(
        [d for d in itertools.product((-1, 0, 1), repeat=dim) if any(d)],
        dtype=np.int64,
    ).reshape(-1, dim)
    kinds = (dirs != 0).sum(axis=1).astype(np.int8)
    for a in (dirs, kinds):
        a.setflags(write=False)
    return dirs, kinds


def probe_regions(
    index: LeafIndex, root: RootGrid, level: int, ids: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """In-domain same-level neighbor regions of blocks ``ids`` (all at
    ``level``), in every direction.

    Returns ``(rows, dirs, codes)``: the position in ``ids`` of each
    probe's block, its direction number in :func:`directions`, and the
    Morton code of the region after periodic wrap.  Regions leaving a
    non-periodic domain are dropped.

    A Morton code is the OR of each coordinate's bits spread ``dim``
    apart, so each dimension's three shifted, wrapped coordinates are
    spread once and every direction's code is the OR of one spread per
    dimension.
    """
    dim = root.dim
    offsets = directions(dim)[0]
    coords = index.coords[ids]
    parts = np.empty((dim, 3, ids.shape[0]), dtype=np.uint64)
    inside = np.ones((dim, 3, ids.shape[0]), dtype=bool)
    for k, ext in enumerate(root.extent_at(level)):
        shifted = coords[:, k][None, :] + np.arange(-1, 2)[:, None]
        if root.periodic[k]:
            shifted %= ext
        else:
            inside[k] = (shifted >= 0) & (shifted < ext)
            np.clip(shifted, 0, ext - 1, out=shifted)
        parts[k] = spread_bits(shifted, dim) << np.uint64(k)
    codes = parts[0, offsets[:, 0] + 1]
    valid = inside[0, offsets[:, 0] + 1]
    for k in range(1, dim):
        codes = codes | parts[k, offsets[:, k] + 1]
        valid = valid & inside[k, offsets[:, k] + 1]
    dirs, rows = np.nonzero(valid)
    return rows, dirs, codes[dirs, rows].astype(np.int64)


def build_neighbor_graph(forest: OctreeForest) -> NeighborGraph:
    """Neighbor graph of a forest's leaves in block-ID (SFC) order.

    Each undirected pair is kept once, as ``(lower id, higher id)`` rows
    in ascending order, with the strongest (lowest)
    :class:`NeighborKind` over every direction either block reaches the
    other through; periodic self-contacts in degenerate domains are
    dropped.
    """
    index = forest.index()
    root = forest.root
    n = index.n
    dir_kinds = directions(forest.dim)[1]
    src_all: List[np.ndarray] = []
    dst_all: List[np.ndarray] = []
    kind_all: List[np.ndarray] = []

    for lvl in np.unique(index.levels).tolist():
        ids = np.flatnonzero(index.levels == lvl)
        rows, dirs, codes = probe_regions(index, root, lvl, ids)
        found = index.locate(lvl, codes)
        # A subdivided region holds finer neighbors; each of them finds
        # this block from its own side, through the opposite direction
        # (same kind), as the leaf covering its probe.
        hit = index.levels[found] <= lvl
        src_all.append(ids[rows[hit]])
        dst_all.append(found[hit])
        kind_all.append(dir_kinds[dirs[hit]])

    src = np.concatenate(src_all)
    dst = np.concatenate(dst_all)
    kinds = np.concatenate(kind_all)
    keep = src != dst  # periodic self-contacts in degenerate domains
    src, dst, kinds = src[keep], dst[keep], kinds[keep]

    # Undirected dedup keeping the strongest (lowest) kind per pair: one
    # sort of (pair, kind) packed as pair * 4 + kind.
    packed = (np.minimum(src, dst) * np.int64(n) + np.maximum(src, dst)) * 4 + kinds
    packed.sort()
    pair = packed >> 2
    first = np.ones(pair.shape[0], dtype=bool)
    first[1:] = pair[1:] != pair[:-1]
    pair = pair[first]
    edges = np.stack([pair // n, pair % n], axis=1).reshape(-1, 2)
    kinds = (packed[first] & 3).astype(np.int8)
    return NeighborGraph(index.keys, edges, kinds)
