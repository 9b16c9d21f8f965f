"""PlacementContext: the per-rank hardware description policies see.

The paper's placement study assumes identical ranks; ROADMAP item 2
(and Parthenon-VIBE / Helix in PAPERS.md) asks what happens on *mixed*
hardware.  A :class:`PlacementContext` carries exactly the per-rank
capabilities a placement policy may exploit:

* ``rank_speed`` — relative compute throughput (1.0 = the reference
  node; 2.0 finishes a block in half the time).  This is *hardware
  class*, not health: transient fault slowdowns
  (``Cluster.node_speed_factor``) stay in the simnet layer and are
  deliberately invisible to policies, which must not chase thermal
  noise.
* ``rank_nic_gbps`` — NIC tier of the rank's node (reference fabric is
  40 Gbps, the paper's QLogic IB).
* ``ranks_per_node`` — dense packing, for node-locality reasoning.

The context lives in :mod:`repro.core` (pure numpy, no simnet import)
so policies and metrics can depend on it without a layering cycle;
:meth:`repro.simnet.cluster.Cluster.placement_context` bridges the
simulated cluster into one.
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = ["PlacementContext", "REFERENCE_NIC_GBPS"]

#: NIC tier of the reference hardware class (the paper's 40 Gbps QLogic
#: fabric).  Per-tier bandwidth scaling is relative to this.
REFERENCE_NIC_GBPS = 40.0


@dataclasses.dataclass(frozen=True)
class PlacementContext:
    """Per-rank hardware capabilities, in rank-ID order.

    Attributes
    ----------
    rank_speed:
        ``(n_ranks,)`` relative compute throughput per rank (> 0).
    rank_nic_gbps:
        ``(n_ranks,)`` NIC tier of each rank's node (> 0).
    ranks_per_node:
        Ranks packed per node; node of rank ``r`` is
        ``r // ranks_per_node``.
    """

    rank_speed: np.ndarray
    rank_nic_gbps: np.ndarray
    ranks_per_node: int = 16

    def __post_init__(self) -> None:
        speed = np.ascontiguousarray(self.rank_speed, dtype=np.float64)
        nic = np.ascontiguousarray(self.rank_nic_gbps, dtype=np.float64)
        if speed.ndim != 1 or speed.size < 1:
            raise ValueError(f"rank_speed must be 1-D and non-empty, got {speed.shape}")
        if nic.shape != speed.shape:
            raise ValueError(
                f"rank_nic_gbps shape {nic.shape} != rank_speed shape {speed.shape}"
            )
        for name, arr in (("rank_speed", speed), ("rank_nic_gbps", nic)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite")
            if arr.min() <= 0:
                raise ValueError(f"{name} must be positive")
        if self.ranks_per_node < 1:
            raise ValueError("ranks_per_node must be >= 1")
        object.__setattr__(self, "rank_speed", speed)
        object.__setattr__(self, "rank_nic_gbps", nic)

    # ------------------------------------------------------------------ #

    @classmethod
    def homogeneous(
        cls,
        n_ranks: int,
        ranks_per_node: int = 16,
        speed: float = 1.0,
        nic_gbps: float = REFERENCE_NIC_GBPS,
    ) -> "PlacementContext":
        """A uniform context (every rank identical) — the paper's regime."""
        if n_ranks < 1:
            raise ValueError("n_ranks must be >= 1")
        return cls(
            rank_speed=np.full(n_ranks, float(speed)),
            rank_nic_gbps=np.full(n_ranks, float(nic_gbps)),
            ranks_per_node=ranks_per_node,
        )

    # ------------------------------------------------------------------ #

    @property
    def n_ranks(self) -> int:
        return int(self.rank_speed.shape[0])

    @property
    def uniform_speed(self) -> bool:
        """True when every rank has the same compute throughput."""
        return float(self.rank_speed.min()) == float(self.rank_speed.max())

    def total_capacity(self) -> float:
        """Sum of per-rank throughputs — the hetero area-bound divisor
        (``Q || C_max`` analogue of ``n_ranks``)."""
        return float(self.rank_speed.sum())

    def node_of(self, ranks: np.ndarray | int) -> np.ndarray | int:
        return np.asarray(ranks) // self.ranks_per_node

    def slice(self, lo: int, hi: int) -> "PlacementContext":
        """The sub-context of ranks ``[lo, hi)`` (a zone or a shard window)."""
        return dataclasses.replace(
            self,
            rank_speed=self.rank_speed[lo:hi],
            rank_nic_gbps=self.rank_nic_gbps[lo:hi],
        )

    def __repr__(self) -> str:  # arrays are noisy; summarize
        return (
            f"PlacementContext(n_ranks={self.n_ranks}, "
            f"speed=[{self.rank_speed.min():g}, {self.rank_speed.max():g}], "
            f"nic_gbps=[{self.rank_nic_gbps.min():g}, {self.rank_nic_gbps.max():g}], "
            f"ranks_per_node={self.ranks_per_node})"
        )
