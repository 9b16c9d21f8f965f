"""Refinement tagging and 2:1 balance enforcement.

AMR codes tag blocks for refinement when a physical criterion (e.g. a
solution gradient) exceeds a threshold, and for coarsening when a region
becomes smooth (paper §II-B).  Applying raw tags can violate the *2:1
balance* invariant — adjacent leaves differing by more than one
refinement level — which block-based codes require so each face abuts at
most ``2^(dim-1)`` neighbors.  This module converts tags into a legal
set of refine/coarsen operations and applies them to the forest's
packed-key array in one step.  The 2:1 closure and the coarsen check
probe neighbor regions in per-level batches with the helpers the
neighbor-graph builder uses (:mod:`repro.mesh.neighbors`).

Tags and deltas name blocks by their packed keys
(:func:`~repro.mesh.sfc.pack_block_keys`).  :func:`apply_tags` reports
what it did as a :class:`RemeshDelta` — the keys of the refined leaves
and of the merged parents, in a deterministic order.  The delta still
unpacks as the historical ``(n_refined, n_coarsened)``
tuple; :class:`~repro.mesh.AmrMesh` uses it only to decide whether its
cached metadata must be rebuilt.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator

import numpy as np

from .neighbors import probe_regions
from .octree import LeafIndex, OctreeForest
from .sfc import key_codes, key_dims, key_levels, key_parents, morton_decode

__all__ = [
    "RefinementTags",
    "RemeshDelta",
    "enforce_two_one_balance",
    "apply_tags",
]


def _no_keys() -> np.ndarray:
    return np.empty(0, dtype=np.int64)


def _tag_keys(field: str, values) -> np.ndarray:
    """Sorted unique int64 keys of one tag field; ``ValueError`` naming
    the field unless ``values`` is a 1-D integer array (or empty)."""
    keys = np.asarray(values)
    if keys.ndim != 1 or (keys.size and not np.issubdtype(keys.dtype, np.integer)):
        raise ValueError(
            f"RefinementTags.{field} must be a 1-D integer array of block keys, "
            f"got {keys.ndim}-D {keys.dtype}"
        )
    return np.unique(keys.astype(np.int64))


@dataclasses.dataclass(frozen=True, eq=False)
class RefinementTags:
    """Packed keys of the leaves tagged for refinement and coarsening.

    Each field is held as a sorted array of distinct int64 keys.  Tags
    are advisory: :func:`apply_tags` drops keys that are not current
    leaves and coarsening tags that would break sibling completeness or
    2:1 balance, and adds refinement beyond the tag set where balance
    requires it.  A key in both fields is rejected.
    """

    refine: np.ndarray = dataclasses.field(default_factory=_no_keys)
    coarsen: np.ndarray = dataclasses.field(default_factory=_no_keys)

    def __post_init__(self) -> None:
        for field in ("refine", "coarsen"):
            object.__setattr__(self, field, _tag_keys(field, getattr(self, field)))
        overlap = np.intersect1d(self.refine, self.coarsen, assume_unique=True)
        if overlap.size:
            raise ValueError(
                f"{overlap.size} block keys tagged both refine and coarsen: "
                f"{overlap[:4].tolist()}"
            )


@dataclasses.dataclass(frozen=True, eq=False)
class RemeshDelta:
    """Structured description of one :func:`apply_tags` application.

    Attributes
    ----------
    refined:
        Keys of the pre-op leaves that were split into their children,
        in the order they were refined (sorted by ``(level, coords)``).
    coarsened:
        Keys of the parents whose sibling sets were merged, in merge
        order (also by ``(level, coords)``).

    The delta iterates as ``(n_refined, n_coarsened)`` so historical
    tuple-unpacking call sites keep working.
    """

    refined: np.ndarray
    coarsened: np.ndarray

    @property
    def n_refined(self) -> int:
        return int(self.refined.shape[0])

    @property
    def n_coarsened(self) -> int:
        return int(self.coarsened.shape[0])

    @property
    def changed(self) -> bool:
        return bool(self.refined.size or self.coarsened.size)

    @property
    def touched(self) -> int:
        """Removed + added leaf count: how much of the mesh this
        remesh changed (``1 + 2^dim`` per refined or merged block)."""
        keys = np.concatenate([self.refined, self.coarsened])
        if not keys.size:
            return 0
        return int(keys.shape[0]) * (1 + (1 << int(key_dims(keys[:1])[0])))

    def __iter__(self) -> Iterator[int]:
        return iter((self.n_refined, self.n_coarsened))

    def __bool__(self) -> bool:
        return self.changed


def _level_coords_order(levels: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Permutation sorting blocks by ``(level, coords)``."""
    columns = tuple(coords[:, k] for k in reversed(range(coords.shape[1])))
    return np.lexsort(columns + (levels,))


def _closure(forest: OctreeForest, index: LeafIndex, ids: np.ndarray) -> np.ndarray:
    """Block-ID mask of the 2:1 closure of refinement tags ``ids``.

    A vectorized fixpoint.  After refining a level-``L`` leaf its
    children sit at ``L + 1``, so every neighboring leaf coarser than
    ``L`` must refine too, which may cascade.  Each round probes the
    frontier's same-level neighbor regions, per level and in every
    direction, and one :meth:`~repro.mesh.octree.LeafIndex.locate` per
    level finds the coarser leaves covering them; those not yet in the
    result form the next frontier.  Max-level tags are dropped and do
    not propagate.  Level-0 blocks have no coarser neighbor, so a
    frontier of level-0 blocks ends the closure without a probe.
    """
    max_level = forest.max_level
    result = np.zeros(index.n, dtype=bool)
    frontier = ids[index.levels[ids] < max_level]
    result[frontier] = True
    frontier = np.flatnonzero(result)
    while frontier.size:
        levels = index.levels[frontier]
        found = [np.empty(0, dtype=np.int64)]
        for lvl in np.unique(levels[levels > 0]).tolist():
            _, _, codes = probe_regions(index, forest.root, lvl, frontier[levels == lvl])
            pos = index.locate(lvl, codes)
            found.append(pos[index.levels[pos] < lvl])
        new = np.unique(np.concatenate(found))
        new = new[~result[new] & (index.levels[new] < max_level)]
        result[new] = True
        frontier = new
    return result


def _safe_merges(
    forest: OctreeForest, index: LeafIndex, refine: np.ndarray, ids: np.ndarray
) -> np.ndarray:
    """Keys of the parents whose tagged sibling sets merge, ascending.

    A candidate is a parent whose ``2^dim`` children are all tagged
    leaves, none refined.  Merging parent ``p`` leaves its region at
    ``p.level``; it is unsafe when a child (level ``C = p.level + 1``)
    has, across any direction, a neighboring region that is

    * a leaf at level ``C`` being refined (it ends at ``C + 1``), or
    * subdivided (its leaves are at ``C + 1`` or deeper).

    A level-``C + 1`` neighbor would be harmless only if its own parent
    merged first — but that parent is a level-``C`` candidate, which
    sorts after ``p`` in the greedy ``(level, coords)`` pass of the
    per-block algorithm, where each check sees only the merges accepted
    before it.  So that pass accepts exactly the candidates that are
    safe against no accepted merges, which is what is checked here, with
    one probe batch per child level.  When no leaf is deeper than ``C``
    and no level-``C`` leaf refines, the batch is skipped: nothing can
    make the merge unsafe.
    """
    dim = forest.dim
    ids = ids[(index.levels[ids] > 0) & ~refine[ids]]
    parents, owner, counts = np.unique(
        key_parents(index.keys[ids]), return_inverse=True, return_counts=True
    )
    complete = counts[owner] == 1 << dim
    kids, owner = ids[complete], owner[complete]
    unsafe = np.zeros(parents.shape[0], dtype=bool)
    kid_levels = index.levels[kids]
    for lvl in np.unique(kid_levels).tolist():
        if index.depth <= lvl and not refine[index.levels == lvl].any():
            continue
        batch = kid_levels == lvl
        rows, _, codes = probe_regions(index, forest.root, lvl, kids[batch])
        pos = index.locate(lvl, codes)
        reached = index.levels[pos]
        bad = (reached > lvl) | ((reached == lvl) & refine[pos])
        unsafe[owner[batch][rows[bad]]] = True
    return parents[(counts == 1 << dim) & ~unsafe]


def enforce_two_one_balance(forest: OctreeForest, to_refine: np.ndarray) -> np.ndarray:
    """Close a refinement set under the 2:1 balance constraint.

    Given the keys of leaves selected for refinement, returns the keys
    of the superset that :func:`apply_tags` refines, in block-ID order:
    refining a level-``L`` block forces every neighboring leaf at level
    ``L-1`` or coarser to refine too, which may cascade.  Keys that are
    not leaves and max-level tags are dropped.
    """
    index = forest.index()
    return index.keys[_closure(forest, index, forest.ids_of(to_refine))]


def apply_tags(forest: OctreeForest, tags: RefinementTags) -> RemeshDelta:
    """Apply tags to the forest in place; returns a :class:`RemeshDelta`.

    Refinement wins over coarsening: the refine set is first closed under
    2:1 balance, then coarsening is applied only to full sibling sets
    whose merge does not violate balance against the post-refinement mesh.
    The whole delta is applied to the forest's key array at once.

    The returned delta still unpacks as ``(n_refined, n_coarsened)``.
    """
    index = forest.index()
    refine = _closure(forest, index, forest.ids_of(tags.refine))
    merged = _safe_merges(forest, index, refine, forest.ids_of(tags.coarsen))

    refined = np.flatnonzero(refine)
    refined = refined[_level_coords_order(index.levels[refined], index.coords[refined])]
    m_levels = key_levels(merged)
    m_coords = morton_decode(key_codes(merged), forest.dim).reshape(-1, forest.dim)
    order = _level_coords_order(m_levels, m_coords)
    if refined.size or merged.size:
        forest.apply_delta(index.keys[refined], merged)
    return RemeshDelta(refined=index.keys[refined], coarsened=merged[order])
