"""Neighbor kinds and the neighbor graph of a block-structured AMR mesh.

Each block communicates ghost (boundary) data with up to 26 neighbors in
3D — across faces, edges, and vertices (paper §II-B).  With adaptive
refinement a neighbor may sit at a coarser or finer level; a single face
of a block can abut up to ``2^(dim-1)`` finer blocks.  A pair of blocks
may touch through several directions (e.g. a large coarse block touching
both the face and an edge of a fine block); the pair is classified by
its strongest contact (face > edge > vertex), matching how
boundary-exchange message sizes are chosen.

Discovery itself is vectorized over packed block keys in
:mod:`repro.mesh.fast_neighbors`.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Tuple

import numpy as np

from .geometry import BlockIndex
from .sfc import block_keys, unpack_block_keys

__all__ = ["NeighborKind", "NeighborGraph"]


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
    blocks:
        Leaves in block-ID (SFC) order.
    keys:
        The same leaves as packed int64 block keys
        (:func:`~repro.mesh.sfc.pack_block_keys`).
    edges:
        ``(m, 2)`` int64 array of block-ID pairs, each undirected pair
        stored once with ``edges[i, 0] < edges[i, 1]``.
    kinds:
        ``(m,)`` int8 array of :class:`NeighborKind` values per edge.

    Either ``blocks`` or ``keys`` may be given; the other is derived on
    first access.
    """

    def __init__(
        self,
        blocks: Optional[List[BlockIndex]],
        edges: np.ndarray,
        kinds: np.ndarray,
        keys: Optional[np.ndarray] = None,
    ) -> None:
        if blocks is None and keys is None:
            raise ValueError("a neighbor graph needs its blocks or their keys")
        self._blocks = blocks
        self._keys = keys
        self.edges = edges
        self.kinds = kinds
        self.n_blocks = len(blocks) if blocks is not None else int(keys.shape[0])
        self._adj: List[List[int]] | None = None
        self._weights: Dict[tuple, np.ndarray] = {}

    @property
    def blocks(self) -> List[BlockIndex]:
        if self._blocks is None:
            self._blocks = unpack_block_keys(self._keys)
        return self._blocks

    @property
    def keys(self) -> np.ndarray:
        if self._keys is None:
            self._keys = block_keys(self._blocks)
        return self._keys

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
            lut = np.zeros(int(max(NeighborKind)) + 1, dtype=np.float64)
            for k, wt in key:
                lut[k] = wt
            w = lut[self.kinds]
            w.setflags(write=False)
            self._weights[key] = w
        return w
