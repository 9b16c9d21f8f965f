"""Per-block reference implementations of neighbor discovery and remesh.

These are the original recursive, object-walking algorithms the
production mesh (:mod:`repro.mesh`) replaced with packed-key array
code.  They are kept here only as test oracles: each probes one block
at a time over :class:`~repro.mesh.geometry.BlockIndex` objects and the
forest's scalar queries, so it is slow but easy to check by hand.

* :func:`find_neighbors` — every leaf touching one block, with its
  contact kind; :func:`build_neighbor_graph` builds the graph from it.
* :func:`is_two_one_balanced` — whether adjacent leaves differ by at
  most one level.
* :func:`enforce_two_one_balance` and :func:`apply_tags_reference` —
  the ripple-propagation 2:1 closure and the greedy, ordered coarsen
  check, returning what :func:`repro.mesh.refinement.apply_tags` must
  refine and merge.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Set, Tuple

import numpy as np

from repro.mesh.geometry import BlockIndex
from repro.mesh.neighbors import NeighborGraph, NeighborKind
from repro.mesh.octree import OctreeForest
from repro.mesh.refinement import RefinementTags
from repro.mesh.sfc import block_keys, unpack_block_keys


def _directions(dim: int) -> List[Tuple[int, ...]]:
    return [d for d in itertools.product((-1, 0, 1), repeat=dim) if any(d)]


def _facing_children(node: BlockIndex, d: Tuple[int, ...]) -> List[BlockIndex]:
    """Children of ``node`` on the side facing *against* direction ``d``."""
    kids = []
    for child in node.children():
        ok = True
        for k, dk in enumerate(d):
            off = child.coords[k] & 1
            if (dk == 1 and off != 0) or (dk == -1 and off != 1):
                ok = False
                break
        if ok:
            kids.append(child)
    return kids


def _resolve(forest, probe, d, out: Set[BlockIndex], depth_limit: int) -> None:
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
    """All neighbors of ``block`` with their strongest contact kind.

    Probes the same-level index in each direction; a leaf or leaf
    ancestor covering it is the neighbor, otherwise the probe descends
    into the children facing the block.  The block itself (a periodic
    self-contact) is dropped.
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
        hits: Set[BlockIndex] = set()
        _resolve(forest, BlockIndex(block.level, wrapped), d, hits, depth_limit)
        for h in hits:
            if h == block:
                continue
            prev = found.get(h)
            if prev is None or kind < prev:
                found[h] = kind
    return found


def build_neighbor_graph(forest: OctreeForest) -> NeighborGraph:
    """Neighbor graph from :func:`find_neighbors`, probed from both ends."""
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
    return NeighborGraph(block_keys(blocks), edges, kinds)


def is_two_one_balanced(forest: OctreeForest) -> bool:
    """Whether every neighbor pair differs by at most one level."""
    for b in forest.leaves():
        for nb in find_neighbors(forest, b):
            if abs(nb.level - b.level) > 1:
                return False
    return True


def enforce_two_one_balance(
    forest: OctreeForest, to_refine: Set[BlockIndex]
) -> Set[BlockIndex]:
    """Ripple-propagation 2:1 closure of a refinement set.

    Refining a level-``L`` leaf forces every coarser neighboring leaf to
    refine too, which may cascade.  Tags that are not leaves, and
    max-level leaves, are dropped (and do not propagate).
    """
    result: Set[BlockIndex] = set()
    seen: Set[BlockIndex] = set()
    depth_limit = forest.max_level
    queue: List[BlockIndex] = [b for b in to_refine if b in forest]
    pending = set(queue)
    while queue:
        b = queue.pop()
        pending.discard(b)
        if b in seen:
            continue
        seen.add(b)
        if b.level >= forest.max_level:
            continue
        result.add(b)
        for nb in find_neighbors(forest, b, depth_limit=depth_limit):
            if nb.level < b.level and nb not in seen and nb not in pending:
                pending.add(nb)
                queue.append(nb)
    return result


def coarsen_is_safe(
    forest: OctreeForest,
    parent: BlockIndex,
    refined: Set[BlockIndex],
    coarsened_parents: Set[BlockIndex],
) -> bool:
    """Whether merging ``parent``'s children keeps 2:1 balance, given the
    refinements and the merges accepted so far (post-op neighbor levels)."""
    children = parent.children()
    depth_limit = forest.max_level
    for child in children:
        for nb in find_neighbors(forest, child, depth_limit=depth_limit):
            if nb in children:
                continue
            lvl = nb.level
            if nb in refined:
                lvl += 1
            elif nb.level > 0 and nb.parent() in coarsened_parents:
                lvl -= 1
            if lvl - parent.level > 1:
                return False
    return True


def apply_tags_reference(
    forest: OctreeForest, tags: RefinementTags
) -> Tuple[List[BlockIndex], List[BlockIndex]]:
    """What :func:`~repro.mesh.refinement.apply_tags` must do to ``forest``.

    Returns ``(refined, coarsened)`` sorted by ``(level, coords)``
    without changing the forest: the 2:1 closure of the refine tags,
    then the complete, unrefined sibling sets whose merge passes
    :func:`coarsen_is_safe` against the merges accepted before them in
    ``(level, coords)`` order.  The key tags are decoded to
    :class:`BlockIndex` values on entry.
    """
    refine = enforce_two_one_balance(forest, set(unpack_block_keys(tags.refine)))
    by_parent: Dict[BlockIndex, Set[BlockIndex]] = {}
    for b in unpack_block_keys(tags.coarsen):
        if b in forest and b.level > 0 and b not in refine:
            by_parent.setdefault(b.parent(), set()).add(b)
    full = 1 << forest.dim
    candidates = {
        p for p, kids in by_parent.items()
        if len(kids) == full and not any(k in refine for k in p.children())
    }
    accepted: Set[BlockIndex] = set()
    for p in sorted(candidates, key=lambda x: (x.level, x.coords)):
        if coarsen_is_safe(forest, p, refine, accepted):
            accepted.add(p)
    order = lambda x: (x.level, x.coords)  # noqa: E731
    return sorted(refine, key=order), sorted(accepted, key=order)
