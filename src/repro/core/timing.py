"""Placement computation budget tracking (paper Challenge 3 / Fig. 7c).

AMR redistribution runs synchronously on the critical path; the paper
caps placement computation at 50 ms (5% of five 250 ms timesteps between
worst-case refinements).  This module measures policies against that
budget and reports the overhead-vs-scale series of Fig. 7c.
"""

from __future__ import annotations

import dataclasses
from typing import List

import numpy as np

from .chunked import cold_splits
from .policy import PlacementPolicy

__all__ = ["PAPER_BUDGET_S", "BudgetReport", "measure_policy", "within_budget"]

#: The paper's placement computation budget (50 ms).
PAPER_BUDGET_S: float = 0.050


@dataclasses.dataclass(frozen=True)
class BudgetReport:
    """Timing summary of repeated placement computations."""

    policy: str
    n_blocks: int
    n_ranks: int
    mean_s: float
    p95_s: float
    max_s: float
    budget_s: float

    @property
    def within_budget(self) -> bool:
        return self.p95_s <= self.budget_s

    def row(self) -> str:
        flag = "OK " if self.within_budget else "OVER"
        return (
            f"{self.policy:<12} ranks={self.n_ranks:<7} blocks={self.n_blocks:<8} "
            f"mean={self.mean_s * 1e3:8.3f}ms p95={self.p95_s * 1e3:8.3f}ms "
            f"max={self.max_s * 1e3:8.3f}ms [{flag}]"
        )


def measure_policy(
    policy: PlacementPolicy,
    costs: np.ndarray,
    n_ranks: int,
    repeats: int = 5,
    budget_s: float = PAPER_BUDGET_S,
) -> BudgetReport:
    """Time ``repeats`` placement computations of ``policy``.

    The first invocation is discarded as warm-up when ``repeats > 1``
    (allocator and cache effects would otherwise dominate the max).
    Each time is the call's ``PlacementResult.elapsed_s``, the value
    the guard's budget and Fig. 7c read.  Every call runs on an empty
    split memo (:func:`~repro.core.chunked.cold_splits`): otherwise each
    kept repeat would replay the warm-up's recorded split solve, and
    mean, p95 and max would all carry that one measurement.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    times: List[float] = []
    for i in range(repeats + (1 if repeats > 1 else 0)):
        with cold_splits():
            dt = policy.place(costs, n_ranks).elapsed_s
        if repeats == 1 or i > 0:
            times.append(dt)
    arr = np.asarray(times)
    return BudgetReport(
        policy=policy.name,
        n_blocks=int(np.asarray(costs).shape[0]),
        n_ranks=n_ranks,
        mean_s=float(arr.mean()),
        p95_s=float(np.percentile(arr, 95)),
        max_s=float(arr.max()),
        budget_s=budget_s,
    )


def within_budget(
    policy: PlacementPolicy,
    costs: np.ndarray,
    n_ranks: int,
    budget_s: float = PAPER_BUDGET_S,
) -> bool:
    """One-shot budget check (single timed run)."""
    return measure_policy(policy, costs, n_ranks, repeats=1, budget_s=budget_s).max_s <= budget_s
