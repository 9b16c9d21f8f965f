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
``X = 100`` (CPL100) re-places everything, i.e. pure LPT.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .baseline import assignment_from_counts
from .chunked import chunked_cdp_counts
from .context import PlacementContext
from .lpt import lpt_assign
from .policy import PlacementPolicy, register_policy

__all__ = ["CPLX", "repool", "select_rebalance_ranks"]


def select_rebalance_ranks(
    loads: np.ndarray, x_percent: float
) -> np.ndarray:
    """Rank IDs participating in the LPT rebalance for a given ``X``.

    ``round(X/100 * r)`` ranks are chosen, split evenly between the top
    (most loaded) and bottom (least loaded) of the load-sorted order,
    with the extra rank (odd selections) going to the overloaded side —
    the side that motivates the rebalance.  ``X > 0`` selects at least 2
    ranks (one source, one destination) whenever ``r >= 2``.

    Ties in load break toward lower rank IDs for determinism.
    """
    if not 0.0 <= x_percent <= 100.0:
        raise ValueError(f"X must be in [0, 100], got {x_percent}")
    r = int(loads.shape[0])
    k = int(round(x_percent / 100.0 * r))
    if x_percent > 0.0 and r >= 2:
        k = max(k, 2)
    k = min(k, r)
    if k == 0:
        return np.empty(0, dtype=np.int64)
    # Stable argsort on (-load) => descending load, rank-ID tiebreak.
    order = np.argsort(-loads, kind="stable")
    n_top = -(-k // 2)  # ceil
    n_bot = k // 2
    top = order[:n_top]
    bot = order[r - n_bot:] if n_bot else np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate([top, bot])).astype(np.int64)


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
        assignment = assignment_from_counts(self._split(costs, n_ranks, ctx))
        if self.x_percent == 0.0 or costs.shape[0] == 0 or n_ranks < 2:
            return assignment
        return self._rebalance(costs, assignment, n_ranks, ctx)

    def _split(
        self, costs: np.ndarray, n_ranks: int, ctx: Optional[PlacementContext]
    ) -> np.ndarray:
        """Step 1: per-rank counts of the contiguous (chunked CDP) split."""
        return chunked_cdp_counts(costs, n_ranks, ranks_per_chunk=self.ranks_per_chunk)

    def _rebalance(
        self,
        costs: np.ndarray,
        assignment: np.ndarray,
        n_ranks: int,
        ctx: Optional[PlacementContext],
    ) -> np.ndarray:
        """Steps 2-4: re-place the X% most and least loaded ranks with LPT."""
        loads = np.bincount(assignment, weights=costs, minlength=n_ranks)
        ranks = select_rebalance_ranks(loads, self.x_percent)
        return repool(
            costs, assignment, ranks, lambda pool: lpt_assign(pool, ranks.shape[0])
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(x_percent={self.x_percent}, "
            f"ranks_per_chunk={self.ranks_per_chunk})"
        )
