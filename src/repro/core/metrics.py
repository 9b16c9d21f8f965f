"""Placement quality metrics: load balance, locality, contiguity.

The paper's two optimization dimensions (§V) are *compute load balance*
(makespan / per-rank load variance) and *communication locality* (which
neighbor messages stay on-rank via ``memcpy``, on-node via shared memory,
or cross nodes via the fabric — Fig. 6c).  This module computes both
families from an assignment plus the mesh neighbor graph and the
rank→node topology, entirely vectorized.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

import numpy as np

from ..mesh.neighbors import NeighborGraph, NeighborKind
from .context import REFERENCE_NIC_GBPS, PlacementContext

__all__ = [
    "LoadStats",
    "MessageStats",
    "load_stats",
    "message_stats",
    "normalized_makespan",
    "contiguity_fraction",
    "DEFAULT_MESSAGE_WEIGHTS",
]

#: Relative boundary-exchange volume per contact class.  Faces exchange
#: a cells-squared slab, edges a cells-length pencil, vertices a corner —
#: for 16^3 blocks with 2 ghost layers: 16*16*2, 16*2*2, 2^3 cells.
DEFAULT_MESSAGE_WEIGHTS: Dict[NeighborKind, float] = {
    NeighborKind.FACE: 512.0,
    NeighborKind.EDGE: 64.0,
    NeighborKind.VERTEX: 8.0,
}


@dataclasses.dataclass(frozen=True)
class LoadStats:
    """Per-rank compute load summary under an assignment.

    With a heterogeneous context, "load" means *completion time*
    (raw load divided by the rank's speed) — the straggler-relevant
    quantity on mixed hardware.  Homogeneous calls (``ctx=None``) keep
    the historical raw-load semantics bit for bit.
    """

    makespan: float          #: max per-rank load (the straggler)
    mean: float              #: average per-rank load
    imbalance: float         #: makespan / mean (1.0 == perfect)
    cv: float                #: coefficient of variation of rank loads
    min_load: float
    loads: np.ndarray        #: per-rank loads


def load_stats(
    costs: np.ndarray,
    assignment: np.ndarray,
    n_ranks: int,
    ctx: Optional[PlacementContext] = None,
) -> LoadStats:
    """Compute :class:`LoadStats` for an assignment.

    ``ctx`` enables capacity weighting: per-rank loads become
    ``load / rank_speed`` (completion times), so the makespan is the
    time the slowest rank actually finishes.
    """
    loads = np.bincount(assignment, weights=costs, minlength=n_ranks).astype(np.float64)
    if ctx is not None:
        if ctx.n_ranks != n_ranks:
            raise ValueError(
                f"context describes {ctx.n_ranks} ranks, stats asked for {n_ranks}"
            )
        loads = loads / ctx.rank_speed
    mean = float(loads.mean()) if n_ranks else 0.0
    mk = float(loads.max()) if n_ranks else 0.0
    cv = float(loads.std() / mean) if mean > 0 else 0.0
    return LoadStats(
        makespan=mk,
        mean=mean,
        imbalance=mk / mean if mean > 0 else 1.0,
        cv=cv,
        min_load=float(loads.min()) if n_ranks else 0.0,
        loads=loads,
    )


def normalized_makespan(
    costs: np.ndarray,
    assignment: np.ndarray,
    n_ranks: int,
    ctx: Optional[PlacementContext] = None,
) -> float:
    """Makespan divided by the area lower bound (Fig. 7b's y-axis).

    Homogeneous: ``max load / (total / r)``.  With a context, both sides
    are capacity-weighted: completion-time makespan over
    ``total / sum(speeds)`` — the ``Q || C_max`` area bound, so 1.0 still
    means "perfectly balanced for this hardware mix".
    """
    total = float(np.asarray(costs).sum())
    if total <= 0:
        return 1.0
    capacity = n_ranks if ctx is None else ctx.total_capacity()
    return load_stats(costs, assignment, n_ranks, ctx=ctx).makespan / (total / capacity)


@dataclasses.dataclass(frozen=True)
class MessageStats:
    """Boundary-exchange message classification under an assignment.

    ``intra_rank`` pairs never hit MPI (serviced by ``memcpy``);
    ``local`` pairs cross ranks on the same node (shared-memory path);
    ``remote`` pairs cross nodes (fabric path).  Counts are per
    *undirected neighbor pair per exchange round*; volumes apply the
    per-kind message weights (each pair exchanges in both directions,
    which scales all entries by the same factor and is therefore omitted).
    """

    intra_rank: int
    local: int
    remote: int
    intra_rank_volume: float
    local_volume: float
    remote_volume: float
    #: remote volume weighted by NIC tier: each cross-node edge counts
    #: ``volume * (reference_nic / link_nic)``, where the link NIC is the
    #: slower endpoint's tier — so traffic over slow NICs inflates.
    #: Equals ``remote_volume`` on a uniform reference fabric; 0.0 when
    #: no context was supplied (homogeneous calls are unchanged).
    remote_tier_volume: float = 0.0

    @property
    def mpi_visible(self) -> int:
        """Messages actually issued through MPI (local + remote)."""
        return self.local + self.remote

    @property
    def total(self) -> int:
        return self.intra_rank + self.local + self.remote

    @property
    def remote_fraction(self) -> float:
        """Fraction of MPI-visible messages crossing nodes (Fig. 6c's 64%)."""
        vis = self.mpi_visible
        return self.remote / vis if vis else 0.0


def message_stats(
    graph: NeighborGraph,
    assignment: np.ndarray,
    ranks_per_node: int,
    weights: Dict[NeighborKind, float] | None = None,
    ctx: Optional[PlacementContext] = None,
) -> MessageStats:
    """Classify every neighbor pair as intra-rank / local / remote.

    Parameters
    ----------
    graph:
        Mesh neighbor graph (blocks in block-ID order).
    assignment:
        Block→rank map in block-ID order.
    ranks_per_node:
        Ranks packed per node; node of rank ``r`` is ``r // ranks_per_node``
        (the paper's clusters pack 16 ranks per 16-core node).
    ctx:
        Optional :class:`~repro.core.context.PlacementContext`; when
        given, ``remote_tier_volume`` weights each cross-node edge by the
        reference-to-link NIC ratio (slower endpoint governs the link).
    """
    if ranks_per_node < 1:
        raise ValueError("ranks_per_node must be >= 1")
    assignment = np.asarray(assignment, dtype=np.int64)
    if graph.n_blocks != assignment.shape[0]:
        raise ValueError(
            f"assignment covers {assignment.shape[0]} blocks, graph has {graph.n_blocks}"
        )
    w = graph.edge_weights(weights or DEFAULT_MESSAGE_WEIGHTS)
    if graph.n_edges == 0:
        return MessageStats(0, 0, 0, 0.0, 0.0, 0.0)
    ra = assignment[graph.edges[:, 0]]
    rb = assignment[graph.edges[:, 1]]
    same_rank = ra == rb
    same_node = (ra // ranks_per_node) == (rb // ranks_per_node)
    local = ~same_rank & same_node
    remote = ~same_node
    remote_tier = 0.0
    if ctx is not None and remote.any():
        link = np.minimum(ctx.rank_nic_gbps[ra[remote]], ctx.rank_nic_gbps[rb[remote]])
        remote_tier = float((w[remote] * (REFERENCE_NIC_GBPS / link)).sum())
    return MessageStats(
        intra_rank=int(same_rank.sum()),
        local=int(local.sum()),
        remote=int(remote.sum()),
        intra_rank_volume=float(w[same_rank].sum()),
        local_volume=float(w[local].sum()),
        remote_volume=float(w[remote].sum()),
        remote_tier_volume=remote_tier,
    )


def contiguity_fraction(assignment: np.ndarray) -> float:
    """Fraction of adjacent block-ID pairs kept on one rank.

    A cheap scalar locality proxy: 1.0 for baseline/CDP-style contiguous
    placements (minus the r-1 unavoidable boundaries), lower as LPT
    scatters the curve.
    """
    arr = np.asarray(assignment)
    if arr.shape[0] < 2:
        return 1.0
    return float((arr[1:] == arr[:-1]).mean())
