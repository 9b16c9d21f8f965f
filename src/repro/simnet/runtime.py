"""Vectorized BSP execution model for AMR timesteps.

This is the fast path used by the Sedov experiments and microbenchmarks:
instead of simulating every message as a discrete event, each timestep
is evaluated with closed-form, vectorized phase arithmetic over ranks
and rank-pairs.  The model captures the mechanisms the paper measures:

* per-rank **compute** time from assigned block costs, node speed
  (throttling) and machine noise;
* **send dispatch** timing as a function of task ordering — with send
  priority, a rank's boundary data dispatches while it computes; without
  it, sends queue behind compute *and waits*, creating the cascading
  delays of §IV-B (modeled as a cross-rank fixpoint);
* per-message transport latency split into **local** (shared-memory) and
  **remote** (fabric) paths, with receiver-side service backlog that
  serializes incoming messages (traffic hotspots, Fig. 7a) and
  heavy-tailed local service when the shared-memory queue is undersized
  (Fig. 1a / Fig. 3);
* **ACK-loss sender stalls** when the drain queue is disabled (Fig. 1b);
* **synchronization** as a terminal allreduce: every rank stalls until
  the straggler arrives (Fig. 6a's dominant phase).

One step costs O(ranks + rank-pairs), so 50k-step runs at 4096 ranks are
tractable; the driver additionally compresses constant-placement epochs
(see :mod:`repro.amr.driver`).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

import numpy as np

from ..core.metrics import DEFAULT_MESSAGE_WEIGHTS
from ..mesh.neighbors import NeighborGraph, kind_weight_table
from .cluster import Cluster
from .faults import NO_FAULTS, FaultModel
from .machine import DEFAULT_FABRIC, FabricSpec
from .tuning import TUNED, TuningConfig

__all__ = ["ExchangePattern", "StepPhases", "BSPModel"]


@dataclasses.dataclass(frozen=True)
class ExchangePattern:
    """Boundary-exchange structure for a fixed (mesh, assignment) epoch.

    All arrays are precomputed once per redistribution epoch; per-step
    evaluation only adds noise terms.

    Attributes
    ----------
    n_ranks:
        World size.
    pair_src, pair_dst, pair_local, pair_latency:
        Directed rank-pair message aggregates: source rank, destination
        rank, locality flag, and the critical-path transport latency of
        the pair (base path latency + largest single message's
        serialization).
    in_local, in_remote:
        Per-rank incoming message counts (block-pair granularity).
    out_remote:
        Per-rank outgoing remote message counts (ACK-stall exposure).
    loads:
        Per-rank compute load (sum of assigned block costs).
    intra_volume:
        Per-rank same-rank boundary volume serviced by ``memcpy``.
    """

    n_ranks: int
    pair_src: np.ndarray
    pair_dst: np.ndarray
    pair_local: np.ndarray
    pair_latency: np.ndarray
    in_local: np.ndarray
    in_remote: np.ndarray
    out_remote: np.ndarray
    loads: np.ndarray
    intra_volume: np.ndarray

    def message_counts(self, n_edges: int) -> Tuple[int, int, int]:
        """``(intra_rank, local, remote)`` counts of the epoch's
        ``n_edges`` neighbor pairs, as :func:`~repro.core.metrics.
        message_stats` classifies them.

        Each cross-rank pair adds one incoming message at both endpoints,
        so the local and remote pair counts are half the summed
        ``in_local`` and ``in_remote``; the rest are same-rank pairs.
        """
        local = int(self.in_local.sum()) // 2
        remote = int(self.in_remote.sum()) // 2
        return n_edges - local - remote, local, remote

    @classmethod
    def from_mesh(
        cls,
        graph: NeighborGraph,
        assignment: np.ndarray,
        costs: np.ndarray,
        cluster: Cluster,
        fabric: FabricSpec = DEFAULT_FABRIC,
        weights: Dict | None = None,
    ) -> "ExchangePattern":
        """Aggregate a block-level neighbor graph to rank-pair arrays."""
        n_ranks = cluster.n_ranks
        assignment = np.asarray(assignment, dtype=np.int64)
        loads = np.bincount(assignment, weights=costs, minlength=n_ranks)
        weights = weights or DEFAULT_MESSAGE_WEIGHTS
        w = graph.edge_weights(weights)

        if graph.n_edges == 0:
            z = np.zeros(n_ranks, dtype=np.float64)
            return cls(
                n_ranks=n_ranks,
                pair_src=np.empty(0, dtype=np.int64),
                pair_dst=np.empty(0, dtype=np.int64),
                pair_local=np.empty(0, dtype=bool),
                pair_latency=np.empty(0, dtype=np.float64),
                in_local=z.copy(),
                in_remote=z.copy(),
                out_remote=z.copy(),
                loads=loads,
                intra_volume=z.copy(),
            )

        ra = assignment[graph.edges[:, 0]]
        rb = assignment[graph.edges[:, 1]]
        same_rank = ra == rb
        same = np.flatnonzero(same_rank)
        intra_volume = np.bincount(
            ra[same], weights=w[same], minlength=n_ranks
        ).astype(np.float64)

        # Each cross-rank block pair exchanges one message each way, so
        # the directed message set is symmetric: per-rank in and out
        # counts are the endpoint counts of the cross edges, and
        # out_remote equals in_remote.  (Index arrays, not boolean
        # masks, select: a gather is several times cheaper here.)
        node = np.arange(n_ranks) // cluster.ranks_per_node
        cross = np.flatnonzero(~same_rank)
        ca, cb = ra[cross], rb[cross]
        local = node[ca] == node[cb]
        in_local = (
            np.bincount(ca, weights=local, minlength=n_ranks)
            + np.bincount(cb, weights=local, minlength=n_ranks)
        ).astype(np.float64)
        in_remote = (
            np.bincount(ca, minlength=n_ranks) + np.bincount(cb, minlength=n_ranks)
        ) - in_local
        out_remote = in_remote.copy()

        # Collapse to directed rank pairs, keeping the largest message
        # per pair for the critical transport latency, with one sort of
        # ``(src, dst, weight rank)`` keys: both directions of every
        # cross edge, the message size as its rank among the weight
        # table's distinct values.  The last key of each pair's run
        # carries the pair's largest message.
        sizes, kind_rank = np.unique(kind_weight_table(weights), return_inverse=True)
        size_bits = (sizes.shape[0] - 1).bit_length()
        rank_bits = (n_ranks - 1).bit_length()
        size_rank = kind_rank[graph.kinds[cross]]
        key = np.sort(np.concatenate([
            (((ca << rank_bits) | cb) << size_bits) | size_rank,
            (((cb << rank_bits) | ca) << size_bits) | size_rank,
        ]))
        pair = key >> size_bits
        last = np.ones(key.shape[0], dtype=bool)
        last[:-1] = pair[1:] != pair[:-1]
        key = key[np.flatnonzero(last)]
        pair = key >> size_bits
        max_size = sizes[key & ((1 << size_bits) - 1)]
        p_src = pair >> rank_bits
        p_dst = pair & ((1 << rank_bits) - 1)
        p_local = node[p_src] == node[p_dst]
        if cluster.node_nic_gbps is not None:
            # Mixed NIC tiers: a cross-node pair's payload bandwidth is
            # governed by the slower endpoint's NIC.
            nic = cluster.rank_nic()
            remote_bw = fabric.remote_pair_bandwidth(
                np.minimum(nic[p_src], nic[p_dst])
            )
        else:
            remote_bw = fabric.remote_bandwidth
        lat = np.where(
            p_local,
            fabric.local_latency_s + max_size / fabric.local_bandwidth,
            fabric.remote_latency_s + max_size / remote_bw,
        )
        if fabric.cross_switch_extra_s > 0:
            switch = np.asarray(cluster.switch_of(np.arange(n_ranks)))
            lat = lat + (switch[p_src] != switch[p_dst]) * fabric.cross_switch_extra_s
        return cls(
            n_ranks=n_ranks,
            pair_src=p_src,
            pair_dst=p_dst,
            pair_local=np.asarray(p_local, dtype=bool),
            pair_latency=lat.astype(np.float64),
            in_local=in_local,
            in_remote=in_remote,
            out_remote=out_remote,
            loads=np.asarray(loads, dtype=np.float64),
            intra_volume=intra_volume,
        )


@dataclasses.dataclass(frozen=True)
class StepPhases:
    """Per-rank phase times for one simulated timestep (seconds)."""

    compute: np.ndarray
    comm: np.ndarray
    sync: np.ndarray

    @property
    def step_time(self) -> float:
        """Wall-clock duration of the step (identical for all ranks)."""
        return float((self.compute + self.comm + self.sync).max())

    def totals(self) -> Dict[str, float]:
        """Aggregate rank-seconds per phase."""
        return {
            "compute": float(self.compute.sum()),
            "comm": float(self.comm.sum()),
            "sync": float(self.sync.sum()),
        }


class BSPModel:
    """Evaluates BSP timesteps over an :class:`ExchangePattern`.

    Parameters
    ----------
    cluster, fabric, tuning, faults:
        The simulated environment.
    seed:
        Seed for the per-step noise stream.
    """

    #: fixpoint iterations for the untuned send-after-wait cascade
    CASCADE_ITERS = 4
    #: memcpy throughput for intra-rank boundary copies (cells/second)
    MEMCPY_BANDWIDTH = 2.0e10

    def __init__(
        self,
        cluster: Cluster,
        fabric: FabricSpec = DEFAULT_FABRIC,
        tuning: TuningConfig = TUNED,
        faults: FaultModel = NO_FAULTS,
        seed: int = 0,
        exchange_rounds: int = 1,
    ) -> None:
        if exchange_rounds < 1:
            raise ValueError("exchange_rounds must be >= 1")
        self.cluster = cluster
        self.fabric = fabric
        self.tuning = tuning
        self.faults = faults
        self.rng = np.random.default_rng(seed)
        self.exchange_rounds = exchange_rounds
        # Health slowdown / hardware class speed; identical to
        # rank_speed_factor() on homogeneous clusters.
        self._speed = cluster.rank_time_factor()

    # ------------------------------------------------------------------ #

    def reconfigure(
        self,
        cluster: Cluster | None = None,
        tuning: TuningConfig | None = None,
        faults: FaultModel | None = None,
    ) -> None:
        """Apply mid-run environment changes without resetting the noise RNG.

        The resilient driver calls this when a mitigation or fault onset
        changes the world: node eviction shrinks the cluster, enabling
        the drain queue swaps the tuning, a fabric-degradation window
        swaps the effective fault model.  Keeping the RNG stream intact
        preserves determinism across reconfigurations.
        """
        if cluster is not None:
            self.cluster = cluster
            self._speed = cluster.rank_time_factor()
        if tuning is not None:
            self.tuning = tuning
        if faults is not None:
            self.faults = faults

    def rng_state(self) -> dict:
        """Snapshot of the noise-stream RNG (checkpointable)."""
        return self.rng.bit_generator.state

    def set_rng_state(self, state: dict) -> None:
        """Restore a snapshot taken by :meth:`rng_state`."""
        self.rng.bit_generator.state = state

    def step(self, pattern: ExchangePattern, compute_scale: float = 1.0) -> StepPhases:
        """Simulate one timestep; returns per-rank phase times.

        ``compute_scale`` converts block cost units into seconds
        (defaults to the machine's per-unit-cost kernel time via the
        cluster's machine spec when 1.0 is passed to :meth:`step_seconds`).
        """
        rng = self.rng
        f = self.fabric
        t = self.tuning
        n = pattern.n_ranks

        # -- compute phase ---------------------------------------------
        noise = rng.lognormal(0.0, self.cluster.machine.compute_noise_sigma, size=n)
        compute = (
            pattern.loads
            * self.cluster.machine.block_compute_s
            * compute_scale
            * self._speed
            * noise
        )

        # -- send dispatch ----------------------------------------------
        if t.send_priority:
            # Boundary cells are computed and sent first (the §IV-B
            # reordering): the message a neighbor waits on dispatches
            # early in the sender's compute phase.
            frac = rng.uniform(0.10, 0.35, size=n)
            dispatch = compute * frac
        else:
            dispatch = compute.copy()  # refined by the cascade below

        # -- receiver-side service backlog ------------------------------
        # Per exchange round; a timestep issues `exchange_rounds` rounds
        # (multi-stage integrators + flux correction + ghost refills).
        rounds = self.exchange_rounds
        local_sigma = t.queue_contention_sigma(
            float(pattern.in_local.mean()) if n else 0.0
        )
        local_service = (
            pattern.in_local
            * f.local_service_s
            * rng.lognormal(0.0, local_sigma, size=n)
        )
        remote_service = pattern.in_remote * f.remote_service_s
        backlog = (local_service + remote_service) * rounds

        # -- ACK-loss sender stalls --------------------------------------
        stalls = self.faults.sample_ack_stalls(
            (pattern.out_remote * rounds).astype(np.int64), t.drain_queue, rng
        )

        # -- memcpy for co-located neighbors ------------------------------
        memcpy = pattern.intra_volume * rounds / self.MEMCPY_BANDWIDTH

        # -- arrival fixpoint ---------------------------------------------
        def arrivals(disp: np.ndarray) -> np.ndarray:
            arr = np.zeros(n, dtype=np.float64)
            if pattern.pair_src.size:
                np.maximum.at(
                    arr,
                    pattern.pair_dst,
                    disp[pattern.pair_src] + pattern.pair_latency,
                )
            return arr

        if t.send_priority:
            # Early dispatch means a rank rarely waits on neighbor skew:
            # arrivals race only against the receiver's own compute.
            max_arrival = arrivals(dispatch)
            ready = np.maximum(compute, max_arrival) + backlog + memcpy
        else:
            # Sends scheduled after compute *and* waits: dispatch depends
            # on the rank's own wait, which depends on other ranks'
            # dispatches — iterate the cascade to (near) fixpoint.
            ready = compute + backlog + memcpy
            for _ in range(self.CASCADE_ITERS):
                dispatch = ready
                max_arrival = arrivals(dispatch)
                ready = np.maximum(compute, max_arrival) + backlog + memcpy

        # Senders blocked in MPI_Wait by ACK recovery: the recovery path
        # serializes before the rank can proceed to the collective, so the
        # stall adds to the rank's ready time (Fig. 1b's spike signature).
        ready = ready + stalls

        comm = ready - compute

        # -- synchronization ----------------------------------------------
        t_done = float(ready.max()) + f.collective_cost_s(n)
        sync = t_done - ready
        return StepPhases(compute=compute, comm=comm, sync=sync)

    def simulate_steps(
        self, pattern: ExchangePattern, n_steps: int, max_samples: int = 4
    ) -> Tuple[StepPhases, float]:
        """Simulate an epoch of ``n_steps`` identical-structure steps.

        Samples ``min(n_steps, max_samples)`` steps and scales the mean —
        placement, mesh, and loads are constant within an epoch, so only
        the noise stream differs step to step.  Returns (mean per-step
        phases, total epoch wall time).
        """
        if n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        k = min(n_steps, max_samples)
        acc_c = np.zeros(pattern.n_ranks)
        acc_m = np.zeros(pattern.n_ranks)
        acc_s = np.zeros(pattern.n_ranks)
        wall = 0.0
        for _ in range(k):
            ph = self.step(pattern)
            acc_c += ph.compute
            acc_m += ph.comm
            acc_s += ph.sync
            wall += ph.step_time
        mean = StepPhases(compute=acc_c / k, comm=acc_m / k, sync=acc_s / k)
        return mean, wall / k * n_steps
