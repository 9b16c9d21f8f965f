"""Graph-partitioning placement baseline (paper §VIII, Related Work).

Graph partitioners (parMETIS, Zoltan) place blocks by minimizing the
weighted *edge cut* of the neighbor graph subject to balanced part
weights.  The paper's position: "all graph-based approaches model
communication as edge cuts, which we find poorly correlated with
runtime communication overhead" — and they are too slow for the 50 ms
redistribution budget.

This module implements a competent, self-contained multilevel-flavored
partitioner (greedy BFS growth + boundary Kernighan–Lin refinement) so
benchmarks can test both claims against CPLX: edge cut vs measured
communication time, and placement cost vs the budget.

Unlike the other policies, graph partitioning needs the neighbor graph,
so :class:`GraphPartitionPolicy` is constructed *per mesh* with the
graph and exposes the standard interface on top.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..mesh.neighbors import NeighborGraph
from .context import PlacementContext
from .metrics import DEFAULT_MESSAGE_WEIGHTS
from .policy import PlacementPolicy

__all__ = ["GraphPartitionPolicy", "greedy_graph_partition", "edge_cut", "refine_partition"]


def edge_cut(graph: NeighborGraph, assignment: np.ndarray) -> float:
    """Weighted edge cut of an assignment (the partitioner's objective)."""
    if graph.n_edges == 0:
        return 0.0
    w = graph.edge_weights(DEFAULT_MESSAGE_WEIGHTS)
    a = np.asarray(assignment)
    cut = a[graph.edges[:, 0]] != a[graph.edges[:, 1]]
    return float(w[cut].sum())


def greedy_graph_partition(
    graph: NeighborGraph,
    costs: np.ndarray,
    n_ranks: int,
    seed_order: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Grow ``n_ranks`` parts by cost-bounded BFS over the neighbor graph.

    Parts are grown one at a time from the lowest-ID unassigned block
    (or a provided seed order), absorbing the most-connected frontier
    block until the part reaches the target cost ``total / r``.  This is
    the classic greedy graph-growing initializer used inside multilevel
    partitioners.
    """
    n = graph.n_blocks
    if costs.shape != (n,):
        raise ValueError(f"costs shape {costs.shape} != ({n},)")
    adj = graph.adjacency()
    w = graph.edge_weights(DEFAULT_MESSAGE_WEIGHTS)
    # Per-block neighbor weights (parallel arrays to adj).
    nbr_w: List[List[float]] = [[] for _ in range(n)]
    for (a, b), wt in zip(graph.edges, w):
        nbr_w[int(a)].append(float(wt))
        nbr_w[int(b)].append(float(wt))

    target = float(costs.sum()) / n_ranks
    assignment = np.full(n, -1, dtype=np.int64)
    order = seed_order if seed_order is not None else np.arange(n)
    cursor = 0

    for part in range(n_ranks):
        # Seed: next unassigned block in order.
        while cursor < n and assignment[order[cursor]] >= 0:
            cursor += 1
        if cursor >= n:
            break
        seed = int(order[cursor])
        assignment[seed] = part
        load = float(costs[seed])
        # Frontier: connection weight of unassigned blocks to this part.
        gain = np.zeros(n)
        for j, wt in zip(adj[seed], nbr_w[seed]):
            if assignment[j] < 0:
                gain[j] += wt
        while load < target:
            candidates = np.nonzero((gain > 0) & (assignment < 0))[0]
            if candidates.size == 0:
                break
            pick = int(candidates[np.argmax(gain[candidates])])
            if load + float(costs[pick]) > target * 1.25 and load > 0.5 * target:
                break  # would blow the balance; stop growing
            assignment[pick] = part
            load += float(costs[pick])
            gain[pick] = 0.0
            for j, wt in zip(adj[pick], nbr_w[pick]):
                if assignment[j] < 0:
                    gain[j] += wt
    # Any leftovers: append to the currently least-loaded parts.
    leftovers = np.nonzero(assignment < 0)[0]
    if leftovers.size:
        loads = np.bincount(
            assignment[assignment >= 0],
            weights=costs[assignment >= 0],
            minlength=n_ranks,
        )
        for b in leftovers:
            part = int(np.argmin(loads))
            assignment[b] = part
            loads[part] += costs[b]
    return assignment


def refine_partition(
    graph: NeighborGraph,
    costs: np.ndarray,
    assignment: np.ndarray,
    n_ranks: int,
    passes: int = 2,
) -> np.ndarray:
    """Boundary refinement: move blocks to reduce cut if balance allows.

    A lightweight Kernighan–Lin/Fiduccia–Mattheyses pass: for each
    boundary block, compute the cut gain of moving it to its best
    neighboring part; apply positive-gain moves that keep the target
    balance within 30%.
    """
    a = assignment.copy()
    adj = graph.adjacency()
    w = graph.edge_weights(DEFAULT_MESSAGE_WEIGHTS)
    nbr_w: List[List[float]] = [[] for _ in range(graph.n_blocks)]
    for (x, y), wt in zip(graph.edges, w):
        nbr_w[int(x)].append(float(wt))
        nbr_w[int(y)].append(float(wt))
    target = float(costs.sum()) / n_ranks
    loads = np.bincount(a, weights=costs, minlength=n_ranks)

    for _ in range(passes):
        moved = 0
        for b in range(graph.n_blocks):
            here = int(a[b])
            # Connection weight per neighboring part.
            conn: dict[int, float] = {}
            for j, wt in zip(adj[b], nbr_w[b]):
                conn[int(a[j])] = conn.get(int(a[j]), 0.0) + wt
            internal = conn.get(here, 0.0)
            best_part, best_gain = here, 0.0
            for part, wt in conn.items():
                if part == here:
                    continue
                gain = wt - internal
                if gain > best_gain and loads[part] + costs[b] <= target * 1.3:
                    best_part, best_gain = part, gain
            if best_part != here:
                loads[here] -= costs[b]
                loads[best_part] += costs[b]
                a[b] = best_part
                moved += 1
        if moved == 0:
            break
    return a


class GraphPartitionPolicy(PlacementPolicy):
    """Edge-cut-minimizing placement over a fixed neighbor graph.

    Construct per mesh: ``GraphPartitionPolicy(mesh.neighbor_graph)``.
    The ``compute`` interface then matches every other policy, so the
    driver and benches can swap it in directly.
    """

    name = "graph-partition"

    def __init__(self, graph: NeighborGraph, refine_passes: int = 2) -> None:
        self.graph = graph
        self.refine_passes = refine_passes

    def compute(
        self,
        costs: np.ndarray,
        n_ranks: int,
        ctx: Optional[PlacementContext] = None,
    ) -> np.ndarray:
        if costs.shape[0] != self.graph.n_blocks:
            raise ValueError(
                f"policy built for {self.graph.n_blocks} blocks, got {costs.shape[0]}"
            )
        initial = greedy_graph_partition(self.graph, costs, n_ranks)
        return refine_partition(
            self.graph, costs, initial, n_ranks, passes=self.refine_passes
        )
