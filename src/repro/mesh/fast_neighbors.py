"""Vectorized neighbor-graph construction for 2:1-balanced forests.

The reference builder (:func:`repro.mesh.neighbors.build_neighbor_graph`)
probes each leaf's 26 directions with per-block Python recursion — fine
for tests, but it dominates trajectory generation at paper scale
(~9k blocks × hundreds of remesh events).  Profiling-first optimization,
per the repo's workflow: this module rebuilds the same graph with numpy
set operations.

It exploits the 2:1 balance invariant production meshes maintain: every
neighbor of a level-``L`` leaf lives at level ``L-1``, ``L``, or
``L+1``, so membership tests reduce to three sorted-array searches per
(level, direction) batch instead of per-block tree walks.  Forests that
violate the invariant are detected (an in-domain probe resolving at no
candidate level) and rejected, so callers can fall back to the
reference builder.  Equivalence against the reference is property-tested.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from .geometry import BlockIndex, RootGrid
from .neighbors import NeighborGraph, _directions, build_neighbor_graph
from .octree import OctreeForest
from .sfc import morton_encode

__all__ = ["build_neighbor_graph_fast", "build_neighbor_graph_auto"]


class UnbalancedForestError(ValueError):
    """The forest is not 2:1 balanced; use the reference builder."""


def _wrap_coords(
    coords: np.ndarray, level: int, root: RootGrid
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized periodic wrap / domain clip.

    Returns (wrapped coords, validity mask).
    """
    ext = np.asarray(root.extent_at(level), dtype=np.int64)
    out = coords.copy()
    valid = np.ones(coords.shape[0], dtype=bool)
    for k in range(root.dim):
        col = out[:, k]
        if root.periodic[k]:
            out[:, k] = np.mod(col, ext[k])
        else:
            valid &= (col >= 0) & (col < ext[k])
    return out, valid


def _facing_child_offsets(d: Tuple[int, ...]) -> np.ndarray:
    """Child offsets of a probe's children facing the probing block."""
    dims_free = [k for k, dk in enumerate(d) if dk == 0]
    base = np.zeros(len(d), dtype=np.int64)
    for k, dk in enumerate(d):
        if dk == -1:
            base[k] = 1  # probing block is on the +k side of the probe
    combos = [base]
    for k in dims_free:
        combos = [c.copy() for c in combos] + [
            (lambda c: (c.__setitem__(k, 1), c)[1])(c.copy()) for c in combos
        ]
    return np.unique(np.stack(combos), axis=0)


def build_neighbor_graph_fast(
    forest: OctreeForest,
    blocks: Optional[List[BlockIndex]] = None,
    geometry: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> NeighborGraph:
    """Build the neighbor graph of a 2:1-balanced forest, vectorized.

    ``blocks`` (the forest's leaves in SFC order) and ``geometry`` (their
    ``(coords, levels)`` arrays) may be passed by a caller that already
    holds them, such as :class:`~repro.mesh.mesh.AmrMesh`'s caches;
    otherwise they are derived from the forest.

    Raises :class:`UnbalancedForestError` if any in-domain probe cannot
    be resolved at levels ``L-1 / L / L+1`` — the signature of a forest
    deeper than 2:1 balance allows.
    """
    if blocks is None:
        blocks = forest.leaves_dfs()
    n = len(blocks)
    root = forest.root
    dim = forest.dim
    if n == 0:
        return NeighborGraph(blocks, np.empty((0, 2), dtype=np.int64),
                             np.empty(0, dtype=np.int8))

    if geometry is None:
        coords = np.asarray([b.coords for b in blocks], dtype=np.int64)
        levels = np.asarray([b.level for b in blocks], dtype=np.int64)
    else:
        coords, levels = geometry

    # Per-level sorted Morton code tables for membership lookups.
    level_codes: Dict[int, np.ndarray] = {}
    level_ids: Dict[int, np.ndarray] = {}
    for lvl in np.unique(levels):
        sel = np.nonzero(levels == lvl)[0]
        codes = morton_encode(coords[sel])
        order = np.argsort(codes)
        level_codes[int(lvl)] = codes[order]
        level_ids[int(lvl)] = sel[order]

    def lookup(lvl: int, pts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(found mask, block ids) of points at a level."""
        if lvl not in level_codes or pts.shape[0] == 0:
            return (np.zeros(pts.shape[0], dtype=bool),
                    np.zeros(pts.shape[0], dtype=np.int64))
        codes = morton_encode(pts)
        table = level_codes[lvl]
        pos = np.searchsorted(table, codes)
        pos_c = np.minimum(pos, table.shape[0] - 1)
        found = table[pos_c] == codes
        return found, level_ids[lvl][pos_c]

    src_all: List[np.ndarray] = []
    dst_all: List[np.ndarray] = []
    kind_all: List[np.ndarray] = []

    for lvl in (int(v) for v in np.unique(levels)):
        sel = np.nonzero(levels == lvl)[0]
        c = coords[sel]
        for d in _directions(dim):
            kind = sum(1 for x in d if x != 0)
            probe = c + np.asarray(d, dtype=np.int64)
            probe, valid = _wrap_coords(probe, lvl, root)
            if not valid.any():
                continue
            src = sel[valid]
            probe = probe[valid]
            resolved = np.zeros(src.shape[0], dtype=bool)

            # Same level.
            found, ids = lookup(lvl, probe)
            if found.any():
                src_all.append(src[found])
                dst_all.append(ids[found])
                kind_all.append(np.full(int(found.sum()), kind, dtype=np.int8))
                resolved |= found

            # Coarser neighbor: the probe's parent.
            rem = ~resolved
            if lvl > 0 and rem.any():
                found, ids = lookup(lvl - 1, probe[rem] >> 1)
                if found.any():
                    idx = np.nonzero(rem)[0][found]
                    src_all.append(src[idx])
                    dst_all.append(ids[found])
                    kind_all.append(np.full(int(found.sum()), kind, dtype=np.int8))
                    resolved[idx] = True

            # Finer neighbors: the probe's facing children.
            rem = ~resolved
            if rem.any():
                rem_idx = np.nonzero(rem)[0]
                any_child = np.zeros(rem_idx.shape[0], dtype=bool)
                for off in _facing_child_offsets(d):
                    child = (probe[rem] << 1) + off
                    found, ids = lookup(lvl + 1, child)
                    if found.any():
                        src_all.append(src[rem_idx[found]])
                        dst_all.append(ids[found])
                        kind_all.append(
                            np.full(int(found.sum()), kind, dtype=np.int8)
                        )
                        any_child |= found
                resolved[rem_idx] = any_child

            if not resolved.all():
                raise UnbalancedForestError(
                    f"unresolved probe at level {lvl}, direction {d}: "
                    f"forest is not 2:1 balanced"
                )

    if not src_all:
        return NeighborGraph(blocks, np.empty((0, 2), dtype=np.int64),
                             np.empty(0, dtype=np.int8))

    src = np.concatenate(src_all)
    dst = np.concatenate(dst_all)
    kinds = np.concatenate(kind_all)
    keep = src != dst  # periodic self-contacts in degenerate domains
    src, dst, kinds = src[keep], dst[keep], kinds[keep]

    # Undirected dedup keeping the strongest (lowest) kind per pair.
    a = np.minimum(src, dst)
    b = np.maximum(src, dst)
    key = a * np.int64(n) + b
    order = np.lexsort((kinds, key))
    key_s, kinds_s = key[order], kinds[order]
    first = np.ones(key_s.shape[0], dtype=bool)
    first[1:] = key_s[1:] != key_s[:-1]
    uniq_key = key_s[first]
    uniq_kind = kinds_s[first]
    edges = np.stack([uniq_key // n, uniq_key % n], axis=1).astype(np.int64)
    return NeighborGraph(blocks, edges, uniq_kind.astype(np.int8))


def build_neighbor_graph_auto(
    forest: OctreeForest,
    blocks: Optional[List[BlockIndex]] = None,
    geometry: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> NeighborGraph:
    """Fast builder with automatic fallback to the reference.

    Production meshes are 2:1 balanced and take the vectorized path;
    hand-built unbalanced forests (tests, experiments) transparently use
    the per-block reference implementation.  ``blocks`` and
    ``geometry`` are forwarded to :func:`build_neighbor_graph_fast`.
    """
    try:
        return build_neighbor_graph_fast(forest, blocks, geometry)
    except UnbalancedForestError:
        return build_neighbor_graph(forest)
