"""CPLX: the hybrid locality/load-balance placement policy (paper §V-D).

Design principle: *it is easier to selectively break locality in a
contiguous placement than to restore locality in an arbitrary one.*
CPLX therefore:

1. computes an initial locality-preserving placement with (chunked) CDP;
2. sorts ranks by assigned load, descending;
3. selects ``X%`` of ranks from *both ends* of that list — the most
   overloaded and the most underloaded (rebalancing needs both sources
   and destinations);
4. pools every block owned by a selected rank and re-places the pool
   onto the selected ranks with LPT.

``X`` sweeps the tradeoff: ``X = 0`` (CPL0) is pure CDP;
``X = 100`` (CPL100) re-places everything, i.e. pure LPT.  Whenever the
selection covers every rank (``X = 100``, or a small ``r`` where the
two-rank minimum reaches ``r``) step 4 would discard the split, so CPLX
skips steps 1-3 and runs LPT over all ranks directly.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .baseline import assignment_from_counts
from .chunked import chunked_cdp_counts
from .context import PlacementContext
from .lpt import _stable_argsort, lpt_assign
from .policy import PlacementPolicy, register_policy

__all__ = ["CPLX", "rebalance_count", "repool", "select_rebalance_ranks"]


def rebalance_count(n_ranks: int, x_percent: float) -> int:
    """Number of ranks the LPT rebalance selects out of ``n_ranks``.

    ``round(X/100 * r)``, at least 2 (one source, one destination) when
    ``X > 0`` and ``r >= 2``, and at most ``r``.
    """
    if not 0.0 <= x_percent <= 100.0:
        raise ValueError(f"X must be in [0, 100], got {x_percent}")
    k = int(round(x_percent / 100.0 * n_ranks))
    if x_percent > 0.0 and n_ranks >= 2:
        k = max(k, 2)
    return min(k, n_ranks)


def select_rebalance_ranks(
    loads: np.ndarray, x_percent: float
) -> np.ndarray:
    """Rank IDs participating in the LPT rebalance for a given ``X``.

    :func:`rebalance_count` ranks are chosen, split evenly between the
    top (most loaded) and bottom (least loaded) of the load-sorted
    order, with the extra rank (odd selections) going to the overloaded
    side — the side that motivates the rebalance.

    Ties in load break toward lower rank IDs for determinism.  Returns
    the IDs ascending; the two sides are disjoint (``k <= r``), so a
    plain sort orders them.
    """
    r = int(loads.shape[0])
    k = rebalance_count(r, x_percent)
    if k == 0:
        return np.empty(0, dtype=np.int64)
    # Stable argsort on (-load) => descending load, rank-ID tiebreak.
    order = _stable_argsort(-loads)
    n_top = -(-k // 2)  # ceil
    n_bot = k // 2
    top = order[:n_top]
    bot = order[r - n_bot:] if n_bot else np.empty(0, dtype=np.int64)
    return np.sort(np.concatenate([top, bot])).astype(np.int64, copy=False)


def repool(
    costs: np.ndarray,
    assignment: np.ndarray,
    ranks: np.ndarray,
    assign: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """Pool every block owned by ``ranks`` and re-place the pool on them.

    ``assign`` maps the pooled costs to local indices into ``ranks``
    (plain or speed-scaled LPT).  Returns a new array; fewer than two
    ranks, or an empty pool, return ``assignment`` itself.
    """
    if ranks.shape[0] < 2:
        return assignment
    block_ids = np.nonzero(np.isin(assignment, ranks))[0]
    if block_ids.shape[0] == 0:
        return assignment
    assignment = assignment.copy()
    assignment[block_ids] = ranks[assign(costs[block_ids])]
    return assignment


@register_policy("cplx")
class CPLX(PlacementPolicy):
    """Tunable hybrid of CDP (locality) and LPT (balance).

    Parameters
    ----------
    x_percent:
        Percentage of ranks undergoing LPT rebalance (``CPL<X>`` in the
        paper's notation, e.g. ``CPLX(x_percent=50)`` == CPL50).
    ranks_per_chunk:
        Chunk granularity forwarded to the CDP stage.
    """

    def __init__(self, x_percent: float = 50.0, ranks_per_chunk: int = 512) -> None:
        if not 0.0 <= x_percent <= 100.0:
            raise ValueError(f"X must be in [0, 100], got {x_percent}")
        self.x_percent = float(x_percent)
        self.ranks_per_chunk = ranks_per_chunk

    @property
    def label(self) -> str:
        """Paper-style name, e.g. ``CPL50``."""
        x = self.x_percent
        return f"CPL{int(x) if x == int(x) else x}"

    def compute(
        self,
        costs: np.ndarray,
        n_ranks: int,
        ctx: Optional[PlacementContext] = None,
    ) -> np.ndarray:
        rebalance = self.x_percent > 0.0 and costs.shape[0] > 0 and n_ranks >= 2
        if rebalance and rebalance_count(n_ranks, self.x_percent) == n_ranks:
            # Step 4 would pool every block: the split is never used.
            return self._lpt(costs, np.arange(n_ranks), ctx)
        assignment = assignment_from_counts(self._split(costs, n_ranks, ctx))
        if not rebalance:
            return assignment
        return self._rebalance(costs, assignment, n_ranks, ctx)

    def _split(
        self, costs: np.ndarray, n_ranks: int, ctx: Optional[PlacementContext]
    ) -> np.ndarray:
        """Step 1: per-rank counts of the contiguous (chunked CDP) split."""
        return chunked_cdp_counts(costs, n_ranks, ranks_per_chunk=self.ranks_per_chunk)

    def _finish_times(
        self, loads: np.ndarray, ctx: Optional[PlacementContext]
    ) -> np.ndarray:
        """Step 2's sort key: per-rank finish time of the split (its load)."""
        return loads

    def _lpt(
        self, costs: np.ndarray, ranks: np.ndarray, ctx: Optional[PlacementContext]
    ) -> np.ndarray:
        """Step 4's LPT of ``costs`` onto ``ranks``; indices into ``ranks``."""
        return lpt_assign(costs, ranks.shape[0])

    def _rebalance(
        self,
        costs: np.ndarray,
        assignment: np.ndarray,
        n_ranks: int,
        ctx: Optional[PlacementContext],
    ) -> np.ndarray:
        """Steps 2-4: re-place the X% most and least loaded ranks with LPT."""
        loads = np.bincount(assignment, weights=costs, minlength=n_ranks)
        ranks = select_rebalance_ranks(self._finish_times(loads, ctx), self.x_percent)
        return repool(
            costs, assignment, ranks, lambda pool: self._lpt(pool, ranks, ctx)
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(x_percent={self.x_percent}, "
            f"ranks_per_chunk={self.ranks_per_chunk})"
        )
