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


def lpt_assign(
    costs: np.ndarray,
    n_ranks: int,
    initial_loads: np.ndarray | None = None,
) -> np.ndarray:
    """LPT assignment of ``costs`` onto ``n_ranks`` ranks.

    Parameters
    ----------
    costs:
        Per-block cost, block-ID order.
    n_ranks:
        Number of ranks.
    initial_loads:
        Optional pre-existing per-rank load the greedy starts from.

    Notes
    -----
    Ties (equal loads) break toward the lowest rank ID, making the result
    deterministic.  Uses a binary heap of ``(load, rank)`` pairs, each
    step replacing the least-loaded entry in place; the pairs are unique,
    so the heap order fixes every pick.  O(n log n + n log r) total, on
    Python lists (no per-block NumPy scalar round trips).
    """
    n = int(costs.shape[0])
    if initial_loads is None:
        heap = [(0.0, r) for r in range(n_ranks)]
    else:
        loads = np.asarray(initial_loads, dtype=np.float64)
        if loads.shape != (n_ranks,):
            raise ValueError(f"initial_loads shape {loads.shape} != ({n_ranks},)")
        heap = [(float(loads[r]), r) for r in range(n_ranks)]
    heapq.heapify(heap)
    order = np.argsort(-costs, kind="stable")
    cost = costs.tolist()
    assignment = [0] * n
    for bid in order.tolist():
        load, rank = heap[0]
        assignment[bid] = rank
        heapq.heapreplace(heap, (load + cost[bid], rank))
    return np.array(assignment, dtype=np.int64)


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
