"""Neighbor discovery for block-structured AMR meshes.

Each block communicates ghost (boundary) data with up to 26 neighbors in
3D — across faces, edges, and vertices (paper §II-B).  With adaptive
refinement a neighbor may sit at a coarser or finer level; a single face
of a block can abut up to ``2^(dim-1)`` finer blocks.

The discovery algorithm probes, for every leaf and every direction
``d in {-1,0,1}^dim \\ {0}``, the same-level neighbor index, then resolves
it against the leaf set:

* if a leaf (same level) or a leaf ancestor (coarser) covers it, that leaf
  is the neighbor;
* otherwise the neighbor region is refined, and we descend into the
  children *facing the probing block* until leaves are reached.

A pair of blocks may be reachable through several directions (e.g. a
large coarse block touching both the face and an edge of a fine block);
the pair is classified by its strongest contact (face > edge > vertex),
matching how boundary-exchange message sizes are chosen.
"""

from __future__ import annotations

import enum
import itertools
from typing import Dict, List, Set, Tuple

import numpy as np

from .geometry import BlockIndex
from .octree import OctreeForest

__all__ = ["NeighborKind", "find_neighbors", "NeighborGraph", "build_neighbor_graph"]


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


def _directions(dim: int) -> List[Tuple[int, ...]]:
    return [d for d in itertools.product((-1, 0, 1), repeat=dim) if any(d)]


def _facing_children(
    node: BlockIndex, d: Tuple[int, ...]
) -> List[BlockIndex]:
    """Children of ``node`` on the side facing *against* direction ``d``.

    ``d`` is the probe direction from the original block; the probing block
    lies on the ``-d`` side of ``node``, so keep children whose offset is 0
    where ``d[k] == +1`` and 1 where ``d[k] == -1``.
    """
    kids = []
    for child in node.children():
        ok = True
        for k, dk in enumerate(d):
            off = child.coords[k] & 1
            if dk == 1 and off != 0:
                ok = False
                break
            if dk == -1 and off != 1:
                ok = False
                break
        if ok:
            kids.append(child)
    return kids


def _resolve(
    forest: OctreeForest,
    probe: BlockIndex,
    d: Tuple[int, ...],
    out: Set[BlockIndex],
    depth_limit: int,
) -> None:
    """Collect leaves covering ``probe``'s region adjacent to the probing block."""
    leaf = forest.find_covering_leaf(probe)
    if leaf is not None:
        out.add(leaf)
        return
    if probe.level >= depth_limit:
        return
    for child in _facing_children(probe, d):
        _resolve(forest, child, d, out, depth_limit)


def find_neighbors(
    forest: OctreeForest, block: BlockIndex, depth_limit: int | None = None
) -> Dict[BlockIndex, NeighborKind]:
    """All neighbors of ``block`` with their contact classification.

    Returns a dict mapping neighbor leaf -> :class:`NeighborKind`; a pair
    reachable through several directions keeps the strongest (lowest)
    kind.  The block itself is never included (a coarse neighbor found by
    wrap-around in a tiny periodic domain could alias to the block; such
    degenerate self-contacts are dropped).

    ``depth_limit`` caps probe descent; any bound >= the deepest leaf
    level gives identical results (descent only enters regions that are
    actually subdivided), so callers probing many blocks pass
    ``forest.max_level`` instead of paying the default O(n) leaf scan
    per call.
    """
    if block not in forest:
        raise KeyError(f"{block} is not a leaf of the forest")
    root = forest.root
    if depth_limit is None:
        depth_limit = max((b.level for b in forest.leaves()), default=0)
    found: Dict[BlockIndex, NeighborKind] = {}
    for d in _directions(forest.dim):
        kind = NeighborKind.from_direction(d)
        raw = tuple(c + dk for c, dk in zip(block.coords, d))
        wrapped = root.wrap(block.level, raw)
        if wrapped is None:
            continue
        probe = BlockIndex(block.level, wrapped)
        hits: Set[BlockIndex] = set()
        _resolve(forest, probe, d, hits, depth_limit)
        for h in hits:
            if h == block:
                continue
            prev = found.get(h)
            if prev is None or kind < prev:
                found[h] = kind
    return found


class NeighborGraph:
    """Immutable neighbor graph over the SFC-ordered leaves of a mesh.

    Attributes
    ----------
    blocks:
        Leaves in block-ID (SFC) order.
    edges:
        ``(m, 2)`` int64 array of block-ID pairs, each undirected pair
        stored once with ``edges[i, 0] < edges[i, 1]``.
    kinds:
        ``(m,)`` int8 array of :class:`NeighborKind` values per edge.
    """

    def __init__(
        self,
        blocks: List[BlockIndex],
        edges: np.ndarray,
        kinds: np.ndarray,
    ) -> None:
        self.blocks = blocks
        self.edges = edges
        self.kinds = kinds
        self.n_blocks = len(blocks)
        self._adj: List[List[int]] | None = None
        self._weights: Dict[tuple, np.ndarray] = {}

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

    def to_networkx(self, weights_by_kind: Dict[NeighborKind, float] | None = None):
        """Export as a ``networkx.Graph`` for external analysis.

        Nodes are block IDs with a ``level`` attribute; edges carry
        ``kind`` and (optionally) ``weight``.  Useful for spectral /
        community analyses of boundary-communication structure and for
        comparing against off-the-shelf partitioners.
        """
        import networkx as nx

        g = nx.Graph()
        for i, b in enumerate(self.blocks):
            g.add_node(i, level=getattr(b, "level", None))
        w = (
            self.edge_weights(weights_by_kind)
            if weights_by_kind is not None
            else np.ones(self.n_edges)
        )
        for (a, b), kind, wt in zip(self.edges, self.kinds, w):
            g.add_edge(int(a), int(b), kind=int(kind), weight=float(wt))
        return g


def build_neighbor_graph(forest: OctreeForest) -> NeighborGraph:
    """Discover all neighbor pairs of a forest and build the graph.

    Symmetry is enforced structurally: every pair is probed from both
    endpoints and merged keeping the strongest contact, so the result is
    identical regardless of probe order.
    """
    blocks = forest.leaves_dfs()
    ids = {b: i for i, b in enumerate(blocks)}
    pair_kind: Dict[Tuple[int, int], int] = {}
    for b in blocks:
        bi = ids[b]
        for nb, kind in find_neighbors(forest, b).items():
            ni = ids[nb]
            key = (bi, ni) if bi < ni else (ni, bi)
            prev = pair_kind.get(key)
            if prev is None or int(kind) < prev:
                pair_kind[key] = int(kind)
    if pair_kind:
        items = sorted(pair_kind.items())
        edges = np.asarray([k for k, _ in items], dtype=np.int64)
        kinds = np.asarray([v for _, v in items], dtype=np.int8)
    else:
        edges = np.empty((0, 2), dtype=np.int64)
        kinds = np.empty((0,), dtype=np.int8)
    return NeighborGraph(blocks, edges, kinds)
