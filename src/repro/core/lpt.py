"""Longest-Processing-Time-first placement (paper §V-B).

Classic greedy makespan minimization (Graham 1969): sort blocks by cost
descending, assign each to the currently least-loaded rank.  Guarantees
makespan ≤ 4/3 · OPT − 1/(3r); in the paper's experiments a commercial
ILP solver could not beat it in 200 s.  LPT ignores communication
locality entirely — it is the ``X = 100`` endpoint of CPLX.
"""

from __future__ import annotations

import heapq
from typing import Optional

import numpy as np

from .context import PlacementContext
from .policy import PlacementPolicy, register_policy

__all__ = ["LPTPolicy", "lpt_assign"]

#: Fewest blocks a round must place; shorter rounds hand the rest of
#: the blocks to the per-block heap, which is then the cheaper path.
_ROUND_MIN = 128

#: Below this many keys a stable argsort beats the tie-fixed quicksort.
_SORT_MIN = 2048


def _stable_argsort(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")``, faster on long arrays.

    Quicksorts, then puts each run of equal keys back in index order
    with one integer sort of ``run * n + index``.
    """
    n = keys.shape[0]
    if n < _SORT_MIN:
        return np.argsort(keys, kind="stable")
    order = np.argsort(keys)
    ordered = keys[order]
    new_run = ordered[1:] != ordered[:-1]
    if new_run.all():
        return order
    run = np.concatenate(([0], np.cumsum(new_run)))
    return np.sort(run * n + order) % n


def _merge(load: np.ndarray, rank: np.ndarray, m: int, new: np.ndarray):
    """The ``(load, rank)``-sorted state after its first ``m`` loads
    became ``new``: the updated ranks re-enter at their sorted places."""
    r = load.shape[0]
    up_rank = rank[:m]
    srt = np.argsort(new)
    up_load = new[srt]
    up_rank = up_rank[srt]
    if (up_load[1:] == up_load[:-1]).any():
        run = np.concatenate(([0], np.cumsum(up_load[1:] != up_load[:-1])))
        up_rank = np.sort(run * r + up_rank) % r
    rest_load = load[m:]
    rest_rank = rank[m:]
    pos = np.searchsorted(rest_load, up_load)
    tie = pos < rest_load.shape[0]
    tie[tie] = rest_load[pos[tie]] == up_load[tie]
    if tie.any():
        # Equal loads: place by rank within the run of equal rest loads.
        run = np.concatenate(([0], np.cumsum(rest_load[1:] != rest_load[:-1])))
        pos[tie] = np.searchsorted(run * r + rest_rank, run[pos[tie]] * r + up_rank[tie])
    at = pos + np.arange(m)
    rest = np.ones(r, dtype=bool)
    rest[at] = False
    out_load = np.empty_like(load)
    out_rank = np.empty_like(rank)
    out_load[at] = up_load
    out_rank[at] = up_rank
    out_load[rest] = rest_load
    out_rank[rest] = rest_rank
    return out_load, out_rank


def lpt_assign(
    costs: np.ndarray,
    n_ranks: int,
    initial_loads: np.ndarray | None = None,
) -> np.ndarray:
    """LPT assignment of ``costs`` onto ``n_ranks`` ranks.

    Parameters
    ----------
    costs:
        Per-block cost, block-ID order; finite, as
        :meth:`~repro.core.policy.PlacementPolicy.place` checks.
    n_ranks:
        Number of ranks.
    initial_loads:
        Optional pre-existing per-rank load the greedy starts from.

    Notes
    -----
    Blocks are taken in stable descending-cost order, each going to the
    least-loaded rank; equal loads break toward the lowest rank ID, so
    every pick is fixed and the result deterministic.

    The ranks are kept sorted by ``(load, rank)`` and placed a round at
    a time.  Round rule: the next ``w = min(blocks left, r)`` blocks go
    to the ``w`` least-loaded ranks in order, and the round keeps the
    longest prefix ``m`` in which every rank updated so far has a new
    load (``old + cost``, the float sum a per-block greedy forms)
    strictly above the old load of the next rank in line; within that
    prefix each greedy pick is exactly the next rank in the sorted
    order.  Tie rule: a new load equal to the next old load ends the
    round, and the ``m`` updated ranks re-enter the sorted order by
    ``searchsorted``, placed by rank among equal loads.  With the same
    picks and the same float sums, the assignment is bit for bit that
    of the per-block greedy.

    Cost: one O(n log n) sort of the costs; then each round is
    O(r + m log r) NumPy work.  Rounds shrink where loads tie (zero or
    equal costs, integer costs, few ranks), so once a round would place
    fewer than ``_ROUND_MIN`` blocks, the rest go through a binary heap
    of ``(load, rank)`` pairs seeded from the sorted order (a sorted
    list is a heap), one O(log r) ``heapreplace`` per block.  Every kept
    round thus places at least ``_ROUND_MIN`` blocks, and only the one
    round handing over to the heap places none.
    """
    n = int(costs.shape[0])
    if initial_loads is None:
        load = np.zeros(n_ranks)
        rank = np.arange(n_ranks)
    else:
        init = np.asarray(initial_loads, dtype=np.float64)
        if init.shape != (n_ranks,):
            raise ValueError(f"initial_loads shape {init.shape} != ({n_ranks},)")
        rank = _stable_argsort(init)
        load = init[rank]
    order = _stable_argsort(-costs)
    ordered = costs[order]
    assignment = np.empty(n, dtype=np.int64)
    done = 0
    while (w := min(n - done, n_ranks)) >= _ROUND_MIN:
        old = load[:w]
        new = old + ordered[done:done + w]
        ok = np.minimum.accumulate(new[:-1]) > old[1:]
        m = w if ok.all() else 1 + int(ok.argmin())
        if m < _ROUND_MIN:
            break
        assignment[order[done:done + m]] = rank[:m]
        done += m
        load, rank = _merge(load, rank, m, new[:m])
    heap = list(zip(load.tolist(), rank.tolist()))
    picks = []
    for cost in ordered[done:].tolist():
        load_r, r = heap[0]
        picks.append(r)
        heapq.heapreplace(heap, (load_r + cost, r))
    assignment[order[done:]] = picks
    return assignment


@register_policy("lpt")
class LPTPolicy(PlacementPolicy):
    """Pure load balancing: LPT over measured block costs (CPL100).

    Homogeneous by construction (identical machines); the speed-aware
    variant is :class:`repro.core.hetero.HeteroLPTPolicy`.
    """

    def compute(
        self,
        costs: np.ndarray,
        n_ranks: int,
        ctx: Optional[PlacementContext] = None,
    ) -> np.ndarray:
        return lpt_assign(costs, n_ranks)
