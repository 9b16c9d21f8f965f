"""Refinement tagging and 2:1 balance enforcement.

AMR codes tag blocks for refinement when a physical criterion (e.g. a
solution gradient) exceeds a threshold, and for coarsening when a region
becomes smooth (paper §II-B).  Applying raw tags can violate the *2:1
balance* invariant — adjacent leaves differing by more than one
refinement level — which block-based codes require so each face abuts at
most ``2^(dim-1)` neighbors.  This module converts tags into a legal
sequence of refine/coarsen operations.

:func:`apply_tags` reports what it did as a :class:`RemeshDelta` — the
refined leaves and the merged parents, in a deterministic order.  The
delta still unpacks as the historical ``(n_refined, n_coarsened)``
tuple; :class:`~repro.mesh.AmrMesh` uses it only to decide whether its
cached metadata must be rebuilt.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Iterator, List, Set, Tuple

from .geometry import BlockIndex
from .neighbors import find_neighbors
from .octree import OctreeForest

__all__ = [
    "RefinementTags",
    "RemeshDelta",
    "enforce_two_one_balance",
    "apply_tags",
    "is_two_one_balanced",
]


@dataclasses.dataclass
class RefinementTags:
    """Sets of leaves tagged for refinement and coarsening.

    Tags are advisory: :func:`apply_tags` drops coarsening tags that
    would break sibling completeness or 2:1 balance, and adds refinement
    beyond the tag set where balance requires it.
    """

    refine: Set[BlockIndex] = dataclasses.field(default_factory=set)
    coarsen: Set[BlockIndex] = dataclasses.field(default_factory=set)

    def __post_init__(self) -> None:
        overlap = self.refine & self.coarsen
        if overlap:
            raise ValueError(f"blocks tagged both refine and coarsen: {overlap}")


@dataclasses.dataclass(frozen=True)
class RemeshDelta:
    """Structured description of one :func:`apply_tags` application.

    Attributes
    ----------
    refined:
        Pre-op leaves that were split into their children, in the order
        they were refined (sorted by ``(level, coords)``).
    coarsened:
        Parents whose sibling sets were merged, in merge order.

    The delta iterates as ``(n_refined, n_coarsened)`` so historical
    tuple-unpacking call sites keep working.
    """

    refined: Tuple[BlockIndex, ...]
    coarsened: Tuple[BlockIndex, ...]

    @property
    def n_refined(self) -> int:
        return len(self.refined)

    @property
    def n_coarsened(self) -> int:
        return len(self.coarsened)

    @property
    def changed(self) -> bool:
        return bool(self.refined or self.coarsened)

    @property
    def touched(self) -> int:
        """Removed + added leaf count: how much of the mesh this
        remesh changed."""
        full_r = 1 << (len(self.refined[0].coords) if self.refined else 0)
        full_c = 1 << (len(self.coarsened[0].coords) if self.coarsened else 0)
        return len(self.refined) * (1 + full_r) + len(self.coarsened) * (1 + full_c)

    def __iter__(self) -> Iterator[int]:
        return iter((self.n_refined, self.n_coarsened))

    def __bool__(self) -> bool:
        return self.changed


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
    """Close a refinement set under the 2:1 balance constraint.

    Given leaves already selected for refinement, returns a superset such
    that refining all of them leaves the forest 2:1 balanced.  Uses the
    standard ripple propagation: refining a block at level ``L`` forces
    any neighboring leaf at level ``L-1`` or coarser to refine too, which
    may cascade.

    Each touched block is probed exactly once (a visited set covers
    blocks that can never enter the result, e.g. max-level leaves
    repeatedly rediscovered by their neighbors), and probes share one
    depth limit, so closure cost is linear in the touched region rather
    than O(touched x n).

    The input forest must already be 2:1 balanced.
    """
    result: Set[BlockIndex] = set()
    seen: Set[BlockIndex] = set()
    depth_limit = forest.max_level
    # Effective level of each region after refinement = leaf level + 1 if
    # refined.  Work queue of blocks whose refinement may force neighbors.
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
        # After refining b, its children are at b.level + 1.  Any leaf
        # neighbor at level <= b.level - 1 would now differ by >= 2.
        for nb in find_neighbors(forest, b, depth_limit=depth_limit):
            if nb.level < b.level and nb not in seen and nb not in pending:
                pending.add(nb)
                queue.append(nb)
    return result


def _coarsen_is_safe(
    forest: OctreeForest,
    parent: BlockIndex,
    refined: Set[BlockIndex],
    coarsened_parents: Set[BlockIndex],
) -> bool:
    """Whether coarsening ``parent``'s children keeps 2:1 balance.

    The merged parent sits at ``parent.level``; every region adjacent to
    it must end at level ``<= parent.level + 1``.  We check the *post-op*
    level of each adjacent leaf: +1 if it is being refined, -1 if its
    sibling set is being merged.
    """
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


def apply_tags(forest: OctreeForest, tags: RefinementTags) -> RemeshDelta:
    """Apply tags to the forest in place; returns a :class:`RemeshDelta`.

    Refinement wins over coarsening: the refine set is first closed under
    2:1 balance, then coarsening is applied only to full sibling sets
    whose merge does not violate balance against the post-refinement mesh.

    The returned delta still unpacks as ``(n_refined, n_coarsened)``.
    """
    refine = enforce_two_one_balance(forest, set(tags.refine))

    # Candidate coarsen parents: all 2^dim siblings tagged, none refined.
    by_parent: Dict[BlockIndex, Set[BlockIndex]] = {}
    for b in tags.coarsen:
        if b in forest and b.level > 0 and b not in refine:
            by_parent.setdefault(b.parent(), set()).add(b)
    full = 1 << forest.dim
    candidates = {
        p for p, kids in by_parent.items()
        if len(kids) == full and not any(k in refine for k in p.children())
    }

    # Greedily accept merges that stay balanced (order-stable via sort).
    accepted: Set[BlockIndex] = set()
    for p in sorted(candidates, key=lambda x: (x.level, x.coords)):
        if _coarsen_is_safe(forest, p, refine, accepted):
            accepted.add(p)

    refined = sorted(refine, key=lambda x: (x.level, x.coords))
    coarsened = sorted(accepted, key=lambda x: (x.level, x.coords))

    for b in refined:
        forest.refine(b)
    for p in coarsened:
        forest.coarsen(p.children()[0])
    return RemeshDelta(refined=tuple(refined), coarsened=tuple(coarsened))


def tag_by_predicate(
    forest: OctreeForest,
    should_refine: Callable[[BlockIndex], bool],
    should_coarsen: Callable[[BlockIndex], bool] | None = None,
) -> RefinementTags:
    """Build tags from per-block predicates (refine wins on conflict)."""
    tags = RefinementTags()
    for b in forest.leaves():
        if b.level < forest.max_level and should_refine(b):
            tags.refine.add(b)
        elif should_coarsen is not None and b.level > 0 and should_coarsen(b):
            tags.coarsen.add(b)
    return tags
