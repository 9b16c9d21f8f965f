"""The redistribution pipeline (paper §V-A2).

When refinement changes the mesh, redistribution runs three steps:

1. blocks are (re)assigned sequential block IDs via the Z-order SFC;
2. the placement policy computes new block→rank mappings from per-block
   costs (telemetry-driven under our policies, all-ones under the
   framework default);
3. blocks migrate to their new ranks over P2P.

This module implements the pipeline and the cost model of step 3 —
migration volume, and the wall-clock charge for placement + migration
that shows up as the ``lb`` phase (~3% in Fig. 6a).
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from ..core.context import PlacementContext
from ..core.policy import PlacementPolicy, PlacementResult
from ..mesh.sfc import key_first_children, key_levels, key_parents
from ..simnet.machine import FabricSpec

__all__ = [
    "RedistributionOutcome",
    "RedistributionPlan",
    "prepare_redistribution",
    "commit_redistribution",
    "abort_redistribution",
    "stale_assignment",
    "redistribute",
    "carry_assignment",
    "remap_assignment",
]

#: Bytes per block payload: 16^3 cells x ~10 variables x 8 bytes.
BLOCK_BYTES_DEFAULT = 16**3 * 10 * 8


@dataclasses.dataclass(frozen=True)
class RedistributionOutcome:
    """Everything the driver needs from one redistribution."""

    result: PlacementResult
    migrated_blocks: int
    migration_s: float        #: simulated wall time of block migration
    placement_s: float        #: measured placement computation time

    @property
    def lb_s(self) -> float:
        """Total redistribution charge added to the step (bulk-synchronous)."""
        return self.migration_s + self.placement_s


def carry_assignment(
    old_keys: np.ndarray,
    old_assignment: np.ndarray,
    new_keys: np.ndarray,
) -> np.ndarray:
    """Project an assignment across a remesh for migration accounting.

    A surviving block keeps its owner; a refined child starts on its
    parent's rank; a coarsened parent starts on its first child's rank
    (Parthenon keeps data where it was until redistribution moves it).
    Blocks with no identifiable predecessor get rank -1 (freshly created;
    their move is not charged as migration).

    Blocks are packed key arrays; the three lookups are
    ``searchsorted`` joins on the old keys.
    """
    old_keys = np.asarray(old_keys, dtype=np.int64)
    new_keys = np.asarray(new_keys, dtype=np.int64)
    owner = np.asarray(old_assignment, dtype=np.int64)
    if owner.shape != old_keys.shape:
        raise ValueError("old_assignment must give one rank per old block")
    order = np.argsort(old_keys, kind="stable")
    keys, owner = old_keys[order], owner[order]
    last = np.ones(keys.shape[0], dtype=bool)
    last[:-1] = keys[1:] != keys[:-1]      # a repeated block: last one wins
    keys, owner = keys[last], owner[last]

    out = np.full(new_keys.shape[0], -1, dtype=np.int64)
    if keys.shape[0] == 0:
        return out

    def join(sel: np.ndarray, probe: np.ndarray) -> np.ndarray:
        pos = np.minimum(np.searchsorted(keys, probe), keys.shape[0] - 1)
        found = keys[pos] == probe
        out[sel[found]] = owner[pos[found]]
        return sel[~found]

    rest = join(np.arange(new_keys.shape[0]), new_keys)     # same block
    refined = key_levels(new_keys[rest]) > 0
    rest = np.concatenate([                                  # refined child
        join(rest[refined], key_parents(new_keys[rest[refined]])),
        rest[~refined],
    ])
    join(rest, key_first_children(new_keys[rest]))          # merged parent
    return out


def remap_assignment(assignment: np.ndarray, rank_map: np.ndarray) -> np.ndarray:
    """Apply an eviction rank map to an assignment.

    ``rank_map`` (from :meth:`Cluster.eviction_rank_map`) sends each old
    rank to its post-eviction id, or -1 for ranks on evicted nodes.
    Unowned blocks (-1, e.g. freshly created) stay -1; the carried
    positions that map to -1 are the blocks lost with the node.
    """
    out = np.where(assignment >= 0, rank_map[assignment], -1)
    return out.astype(np.int64)


@dataclasses.dataclass(frozen=True)
class RedistributionPlan:
    """A *prepared* (not yet committed) redistribution.

    Two-phase protocol: :func:`prepare_redistribution` computes the
    placement and the migration plan without "moving" anything;
    :func:`commit_redistribution` accepts the new placement, while
    :func:`abort_redistribution` rolls back to the carried (last-good)
    owners — the path taken when the migration transfers exhaust their
    transport retry budget mid-epoch.

    ``src_ranks``/``dst_ranks`` list the endpoints of each planned block
    transfer (one entry per migrating block); the transport layer uses
    them to sample per-link loss.
    """

    result: PlacementResult
    carried: Optional[np.ndarray]
    migrated_blocks: int
    migration_s: float
    src_ranks: np.ndarray
    dst_ranks: np.ndarray

    @property
    def placement_s(self) -> float:
        return self.result.elapsed_s


def prepare_redistribution(
    policy: PlacementPolicy,
    costs: np.ndarray,
    n_ranks: int,
    prev_assignment: Optional[np.ndarray],
    fabric: FabricSpec,
    block_bytes: float = BLOCK_BYTES_DEFAULT,
    ctx: Optional[PlacementContext] = None,
) -> RedistributionPlan:
    """Phase one: run the policy and build the migration plan.

    ``prev_assignment`` is the carried-over owner per (new) block ID, or
    ``None`` at startup.  Migration time models the bulk P2P transfer:
    every migrating block crosses the fabric once; per-rank transfers
    overlap, so the charge is the max over ranks of bytes in+out at the
    remote bandwidth (in cells/s, block payloads converted accordingly).

    ``ctx`` is forwarded to the policy so capacity-aware policies can
    weight placement by hardware class.
    """
    result = policy.place(costs, n_ranks, ctx=ctx)
    empty = np.empty(0, dtype=np.int64)
    if prev_assignment is None:
        return RedistributionPlan(result, None, 0, 0.0, empty, empty)
    prev = np.asarray(prev_assignment, dtype=np.int64)
    if prev.shape != result.assignment.shape:
        raise ValueError("prev_assignment must cover the new block set (carry first)")
    moving = (prev != result.assignment) & (prev >= 0)
    migrated = int(moving.sum())
    if migrated == 0:
        return RedistributionPlan(result, prev, 0, 0.0, empty, empty)
    out_bytes = np.bincount(prev[moving], minlength=n_ranks) * block_bytes
    in_bytes = np.bincount(result.assignment[moving], minlength=n_ranks) * block_bytes
    per_rank = np.maximum(out_bytes, in_bytes)
    # Convert payload bytes to the fabric's cell-based bandwidth (8 B/cell).
    migration_s = float(per_rank.max()) / 8.0 / fabric.remote_bandwidth
    return RedistributionPlan(
        result, prev, migrated, migration_s, prev[moving], result.assignment[moving]
    )


def commit_redistribution(plan: RedistributionPlan) -> RedistributionOutcome:
    """Phase two (success): accept the new placement and its charges."""
    return RedistributionOutcome(
        plan.result, plan.migrated_blocks, plan.migration_s, plan.result.elapsed_s
    )


def stale_assignment(carried: np.ndarray, n_ranks: int) -> np.ndarray:
    """The degraded-mode placement: carried owners, holes round-robined.

    Blocks with no predecessor (carry produced -1) must live somewhere;
    ``block_id % n_ranks`` is deterministic and needs no migration
    bookkeeping (a fresh block has no data to move).
    """
    out = np.asarray(carried, dtype=np.int64).copy()
    holes = out < 0
    if holes.any():
        out[holes] = np.nonzero(holes)[0] % n_ranks
    return out


def abort_redistribution(
    plan: RedistributionPlan, n_ranks: int, stall_s: float = 0.0
) -> RedistributionOutcome:
    """Phase two (failure): roll back to the last-good placement.

    The epoch continues on the *stale* carried assignment: no blocks
    migrate (whatever partial transfers happened are discarded — block
    data is immutable until commit, so discarding is safe), and the
    wasted retransmission time ``stall_s`` is still charged to the lb
    phase.  At startup there is nothing to roll back to, so the prepared
    placement commits (initial placement moves no data).
    """
    if plan.carried is None:
        return commit_redistribution(plan)
    stale = PlacementResult(
        assignment=stale_assignment(plan.carried, n_ranks),
        policy=plan.result.policy + "+stale",
        elapsed_s=plan.result.elapsed_s,
    )
    return RedistributionOutcome(stale, 0, stall_s, plan.result.elapsed_s)


def redistribute(
    policy: PlacementPolicy,
    costs: np.ndarray,
    n_ranks: int,
    prev_assignment: Optional[np.ndarray],
    fabric: FabricSpec,
    block_bytes: float = BLOCK_BYTES_DEFAULT,
    ctx: Optional[PlacementContext] = None,
) -> RedistributionOutcome:
    """One-shot prepare + commit (the reliable-fabric fast path)."""
    return commit_redistribution(
        prepare_redistribution(
            policy, costs, n_ranks, prev_assignment, fabric, block_bytes, ctx=ctx
        )
    )
