"""Exact makespan reference solver (paper §V-B's Gurobi stand-in).

The paper validated LPT against a commercial ILP solver, which could not
improve on it within 200 s.  No solver is available here, so we provide
an exact branch-and-bound for ``Q || C_max`` (uniform machines: rank
``r`` completes load ``L`` in ``L / speeds[r]``; minimize makespan),
usable on small instances, plus standard lower bounds.  Identical
machines (``P || C_max``) are the unit-speed case.  Benchmarks use it to
reproduce the "LPT is near-optimal" observation.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from .hetero import hetero_lpt_assign

__all__ = [
    "BnBResult",
    "hetero_makespan_lower_bound",
    "makespan_lower_bound",
    "solve_hetero_makespan_bnb",
    "solve_makespan_bnb",
]


@dataclasses.dataclass(frozen=True)
class BnBResult:
    """Outcome of a branch-and-bound makespan solve."""

    assignment: np.ndarray
    makespan: float
    optimal: bool           #: proven optimal (search exhausted or hit LB)
    nodes_explored: int
    elapsed_s: float


def hetero_makespan_lower_bound(costs: np.ndarray, speeds: np.ndarray) -> float:
    """Max of three lower bounds for ``Q || C_max`` (makespan = max load/speed).

    The area bound ``total / sum(speeds)`` (perfect capacity-weighted
    split), the longest-job bound ``max(cost) / max(speed)`` (the largest
    block on the fastest rank), and the pairing bound
    ``(c[r-1] + c[r]) / max(speed)``: with ``r+1`` jobs at least one
    rank gets two of the largest ``r+1`` (costs sorted descending,
    0-indexed).
    """
    costs = np.asarray(costs, dtype=np.float64)
    speeds = np.asarray(speeds, dtype=np.float64)
    if costs.size == 0:
        return 0.0
    fastest = float(speeds.max())
    n_ranks = speeds.shape[0]
    lb = max(float(costs.sum()) / float(speeds.sum()), float(costs.max()) / fastest)
    if costs.shape[0] > n_ranks:
        s = np.sort(costs)[::-1]
        lb = max(lb, float(s[n_ranks - 1] + s[n_ranks]) / fastest)
    return lb


def makespan_lower_bound(costs: np.ndarray, n_ranks: int) -> float:
    """:func:`hetero_makespan_lower_bound` on ``n_ranks`` identical ranks."""
    return hetero_makespan_lower_bound(costs, np.ones(n_ranks))


def solve_makespan_bnb(
    costs: np.ndarray,
    n_ranks: int,
    time_limit_s: float = 10.0,
    node_limit: int = 5_000_000,
) -> BnBResult:
    """:func:`solve_hetero_makespan_bnb` on ``n_ranks`` identical ranks.

    On small instances (n <= ~24) the search completes well inside the
    default limits.
    """
    return solve_hetero_makespan_bnb(
        costs, np.ones(n_ranks), time_limit_s=time_limit_s, node_limit=node_limit
    )


def solve_hetero_makespan_bnb(
    costs: np.ndarray,
    speeds: np.ndarray,
    time_limit_s: float = float("inf"),
    node_limit: int = 2_000_000,
) -> BnBResult:
    """Branch-and-bound for minimum makespan on uniform machines.

    Jobs are assigned in descending cost order; at each node we try each
    rank, earliest-finishing first, pruning on (a) the incumbent, (b) the
    capacity-area bound over remaining work and the current straggler,
    and (c) machine symmetry (at most one idle rank per speed class is
    tried per level: two idle ranks at different speeds are not
    interchangeable).  Speed-scaled LPT
    (:func:`repro.core.hetero.hetero_lpt_assign`, plain LPT at unit
    speeds) seeds the incumbent, so the solver only ever improves on the
    greedy — exactly how the paper used Gurobi.

    The default has no wall-clock cut (``node_limit`` alone bounds the
    search), keeping results deterministic for a given input — required
    for a registered policy.
    """
    costs = np.asarray(costs, dtype=np.float64)
    speeds = np.asarray(speeds, dtype=np.float64)
    n = int(costs.shape[0])
    n_ranks = int(speeds.shape[0])
    if n_ranks < 1 or speeds.min() <= 0:
        raise ValueError("speeds must be a non-empty positive array")
    t0 = time.perf_counter()
    lb = hetero_makespan_lower_bound(costs, speeds)

    seed = hetero_lpt_assign(costs, speeds)
    best_assign = seed.copy()
    loads0 = np.bincount(seed, weights=costs, minlength=n_ranks)
    best = float((loads0 / speeds).max()) if n else 0.0
    if n == 0 or best <= lb * (1 + 1e-12):
        return BnBResult(best_assign, best, True, 0, time.perf_counter() - t0)

    order = np.argsort(-costs, kind="stable")
    sorted_costs = costs[order]
    suffix = np.concatenate([np.cumsum(sorted_costs[::-1])[::-1], [0.0]])
    total_speed = float(speeds.sum())

    loads = np.zeros(n_ranks, dtype=np.float64)
    speed_of = speeds.tolist()
    assign_sorted = np.full(n, -1, dtype=np.int64)
    best_sorted = None
    nodes = 0
    complete = True
    # Per-node reductions call the ufuncs directly: the same arithmetic
    # as ndarray.sum/max without their wrapper cost.
    add, maximum = np.add.reduce, np.maximum.reduce

    def dfs(depth: int) -> None:
        nonlocal best, best_sorted, nodes, complete
        if nodes >= node_limit or time.perf_counter() - t0 > time_limit_s:
            complete = False
            return
        nodes += 1
        completion = loads / speeds
        if depth == n:
            m = float(maximum(completion))
            if m < best - 1e-12:
                best = m
                best_sorted = assign_sorted.copy()
            return
        # Prune: both the capacity-area bound over remaining work and
        # the current straggler are lower bounds on the final makespan.
        area = (float(add(loads)) + suffix[depth]) / total_speed
        if max(area, float(maximum(completion))) >= best - 1e-12:
            return
        w = float(sorted_costs[depth])
        tried_empty_speeds = set()
        # Deterministic order: earliest-finishing ranks first tightens
        # pruning (least-loaded first at unit speeds).
        for r in completion.argsort(kind="stable").tolist():
            load = float(loads[r])
            if load == 0.0:
                if speed_of[r] in tried_empty_speeds:
                    continue  # idle ranks of one speed class are interchangeable
                tried_empty_speeds.add(speed_of[r])
            if (load + w) / speed_of[r] >= best - 1e-12:
                continue
            loads[r] += w
            assign_sorted[depth] = r
            dfs(depth + 1)
            loads[r] -= w
            assign_sorted[depth] = -1
            if best <= lb * (1 + 1e-12):
                return  # matched the lower bound: proven optimal

    dfs(0)

    if best_sorted is not None:
        best_assign = np.empty(n, dtype=np.int64)
        best_assign[order] = best_sorted
    optimal = complete or best <= lb * (1 + 1e-12)
    return BnBResult(
        best_assign, float(best), bool(optimal), nodes, time.perf_counter() - t0
    )
