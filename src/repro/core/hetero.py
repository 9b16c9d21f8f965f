"""Heterogeneity-aware placement policies (ROADMAP item 2).

Three registered policies exploit a
:class:`~repro.core.context.PlacementContext`:

* ``hetero-lpt`` — speed-scaled LPT: each block goes to the rank that
  *finishes* it earliest (``(load + cost) / speed``), the natural
  ``Q || C_max`` greedy.  On uniform speeds this is exactly plain LPT.
* ``hetero-cplx`` / ``hetero-cplx:<X>`` — capacity-aware CPLX: a
  capacity-proportional contiguous split (fast ranks take longer SFC
  runs) followed by the usual X% rank rebalance, with rank "load"
  measured as completion time and the pooled blocks re-placed by
  speed-scaled LPT.  It subclasses CPLX and overrides only those three
  hooks, so on uniform speeds it *is* plain CPLX, bit for bit.
* ``hetero-ilp`` — exact branch-and-bound on uniform machines for small
  instances (the paper's Gurobi-reference arm generalized), falling
  back to speed-scaled LPT beyond ``max_exact_blocks``.

All three satisfy the homogeneous-invariance contract: with ``ctx=None``
or a uniform-speed context they return the same assignments as their
homogeneous counterparts (pinned by the parity suite in
``tests/test_hetero_context.py``).
"""

from __future__ import annotations

import heapq
from typing import Optional

import numpy as np

from .baseline import contiguous_counts
from .context import PlacementContext
from .cplx import CPLX
from .lpt import LPTPolicy, _stable_argsort
from .policy import PlacementPolicy, register_policy

__all__ = [
    "HeteroCPLX",
    "HeteroILPPolicy",
    "HeteroLPTPolicy",
    "capacity_contiguous_counts",
    "hetero_lpt_assign",
]


def hetero_lpt_assign(
    costs: np.ndarray,
    speeds: np.ndarray,
    initial_loads: np.ndarray | None = None,
) -> np.ndarray:
    """Speed-scaled LPT: assign each block to its earliest-finishing rank.

    Blocks are taken in descending cost (stable, like plain LPT); rank
    ``r`` holding load ``L`` would finish a block of cost ``c`` at
    ``(L + c) / speeds[r]``, and the minimum wins.  Ties break toward
    the lowest rank ID.  One heap per distinct speed keeps the candidate
    set at ``k`` = number of speed classes: within a class the
    least-loaded rank is always the best representative, so the total
    cost is ``O(n (log r + k))``.

    With a single speed class this reduces *exactly* to
    :func:`repro.core.lpt.lpt_assign` (same picks and tie-breaks).
    """
    costs = np.asarray(costs, dtype=np.float64)
    speeds = np.asarray(speeds, dtype=np.float64)
    n = int(costs.shape[0])
    n_ranks = int(speeds.shape[0])
    if n_ranks < 1 or speeds.min() <= 0:
        raise ValueError("speeds must be a non-empty positive array")
    if initial_loads is None:
        loads = np.zeros(n_ranks, dtype=np.float64)
    else:
        loads = np.asarray(initial_loads, dtype=np.float64)
        if loads.shape != (n_ranks,):
            raise ValueError(f"initial_loads shape {loads.shape} != ({n_ranks},)")
    # One (load, rank) heap per distinct speed; heap top is the class's
    # earliest-finishing candidate (monotone in load at fixed speed).
    load_of = loads.tolist()
    heaps = []
    for s in np.unique(speeds).tolist():
        heap = [(load_of[r], r) for r in np.nonzero(speeds == s)[0].tolist()]
        heapq.heapify(heap)
        heaps.append((s, heap))
    order = _stable_argsort(-costs)
    cost = costs.tolist()
    assignment = [0] * n
    for bid in order.tolist():
        c = cost[bid]
        best_key = None
        for s, heap in heaps:
            load, rank = heap[0]
            key = ((load + c) / s, rank)
            if best_key is None or key < best_key:
                best_key = key
                best_heap = heap
        load, rank = best_heap[0]
        assignment[bid] = rank
        heapq.heapreplace(best_heap, (load + c, rank))
    return np.array(assignment, dtype=np.int64)


def capacity_contiguous_counts(costs: np.ndarray, speeds: np.ndarray) -> np.ndarray:
    """Contiguous SFC split with boundaries at capacity-weighted targets.

    Rank ``r``'s window ends where the cost prefix sum first reaches
    ``total * cumsum(speeds)[r] / sum(speeds)`` — the uniform-machines
    analogue of the baseline even split (which it equals, up to the
    baseline's block-count rounding, when all speeds match; the
    homogeneous code path never reaches here).  All-zero cost arrays
    fall back to the plain contiguous block-count split.
    """
    costs = np.asarray(costs, dtype=np.float64)
    speeds = np.asarray(speeds, dtype=np.float64)
    n = int(costs.shape[0])
    n_ranks = int(speeds.shape[0])
    if n == 0:
        return np.zeros(n_ranks, dtype=np.int64)
    prefix = np.cumsum(costs)
    total = float(prefix[-1])
    if total <= 0:
        return contiguous_counts(n, n_ranks)
    targets = total * (np.cumsum(speeds)[:-1] / float(speeds.sum()))
    bounds = np.searchsorted(prefix, targets, side="left")
    bounds = np.concatenate([[0], bounds, [n]])
    bounds = np.maximum.accumulate(bounds)
    return np.diff(bounds).astype(np.int64)


@register_policy("hetero-lpt")
class HeteroLPTPolicy(LPTPolicy):
    """Speed-scaled LPT (``Q || C_max`` greedy); plain LPT when uniform."""

    def compute(
        self,
        costs: np.ndarray,
        n_ranks: int,
        ctx: Optional[PlacementContext] = None,
    ) -> np.ndarray:
        if ctx is None or ctx.uniform_speed:
            return super().compute(costs, n_ranks, ctx)
        _check_ctx(ctx, n_ranks)
        return hetero_lpt_assign(costs, ctx.rank_speed)


@register_policy("hetero-cplx")
class HeteroCPLX(CPLX):
    """Capacity-aware CPLX: hetero contiguous split + X% LPT rebalance.

    Overrides only CPLX's three hooks (the split, the rebalance sort key
    and the LPT step); with ``ctx=None`` or uniform speeds each defers to
    CPLX, so homogeneous assignments are bit-identical to ``cplx:<X>``.
    """

    @property
    def label(self) -> str:
        """Paper-style name with a hetero prefix, e.g. ``HCPL50``."""
        return "H" + super().label

    def compute(
        self,
        costs: np.ndarray,
        n_ranks: int,
        ctx: Optional[PlacementContext] = None,
    ) -> np.ndarray:
        if ctx is not None and not ctx.uniform_speed:
            _check_ctx(ctx, n_ranks)
        return super().compute(costs, n_ranks, ctx)

    def _split(
        self, costs: np.ndarray, n_ranks: int, ctx: Optional[PlacementContext]
    ) -> np.ndarray:
        if ctx is None or ctx.uniform_speed:
            return super()._split(costs, n_ranks, ctx)
        return capacity_contiguous_counts(costs, ctx.rank_speed)

    def _finish_times(
        self, loads: np.ndarray, ctx: Optional[PlacementContext]
    ) -> np.ndarray:
        # Rebalance selection ranks by *completion time*, not raw load:
        # a fast rank with a heavy window may be perfectly on schedule.
        if ctx is None or ctx.uniform_speed:
            return loads
        return loads / ctx.rank_speed

    def _lpt(
        self, costs: np.ndarray, ranks: np.ndarray, ctx: Optional[PlacementContext]
    ) -> np.ndarray:
        if ctx is None or ctx.uniform_speed:
            return super()._lpt(costs, ranks, ctx)
        return hetero_lpt_assign(costs, ctx.rank_speed[ranks])


@register_policy("hetero-ilp")
class HeteroILPPolicy(PlacementPolicy):
    """Exact small-instance arm: uniform-machines branch-and-bound.

    Solves ``Q || C_max`` exactly (deterministically: node-limited, no
    wall-clock cut) for instances up to ``max_exact_blocks`` blocks and
    falls back to speed-scaled LPT beyond that — the hetero analogue of
    the paper validating LPT against an ILP solver.  Speeds are
    normalized by their maximum before solving so uniform contexts are
    bit-identical to ``ctx=None`` regardless of the common speed value.
    """

    def __init__(
        self, max_exact_blocks: int = 18, node_limit: int = 200_000
    ) -> None:
        if max_exact_blocks < 0:
            raise ValueError("max_exact_blocks must be >= 0")
        if node_limit < 1:
            raise ValueError("node_limit must be >= 1")
        self.max_exact_blocks = int(max_exact_blocks)
        self.node_limit = int(node_limit)

    def compute(
        self,
        costs: np.ndarray,
        n_ranks: int,
        ctx: Optional[PlacementContext] = None,
    ) -> np.ndarray:
        if ctx is None:
            speeds = np.ones(n_ranks, dtype=np.float64)
        else:
            _check_ctx(ctx, n_ranks)
            speeds = ctx.rank_speed / ctx.rank_speed.max()
        if costs.shape[0] > self.max_exact_blocks:
            return hetero_lpt_assign(costs, speeds)
        from .ilp import solve_hetero_makespan_bnb

        return solve_hetero_makespan_bnb(
            costs, speeds, node_limit=self.node_limit
        ).assignment


def _check_ctx(ctx: PlacementContext, n_ranks: int) -> None:
    if ctx.n_ranks != n_ranks:
        raise ValueError(
            f"context describes {ctx.n_ranks} ranks, placement asked for {n_ranks}"
        )
