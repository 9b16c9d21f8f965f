"""Driver-state checkpoint/restart.

A checkpoint captures everything the resilient driver needs to resume a
run killed by a fail-stop crash *bit-identically*: the block→rank
assignment, the cost tracker's per-block estimates, the full telemetry
collector state, and — crucially for determinism — both RNG streams
(the driver's measurement-noise stream and the BSP model's step-noise
stream).  Restoring a checkpoint and replaying the remaining epochs
produces exactly the phases the uninterrupted run would have produced.

The driver saves through the :class:`CheckpointStore` protocol;
:class:`MemoryCheckpointStore` keeps the latest checkpoint in process
memory.
"""

from __future__ import annotations

import copy
import dataclasses
from typing import Dict, Optional, Protocol, Tuple

import numpy as np

from ..telemetry.columnar import ColumnTable

__all__ = [
    "DriverCheckpoint",
    "CheckpointStore",
    "MemoryCheckpointStore",
]


@dataclasses.dataclass
class DriverCheckpoint:
    """Complete resumable driver state at one epoch boundary.

    ``epoch_index`` is the index (into the trajectory's epoch list) of
    the *next* epoch to execute; ``assignment`` is the placement of the
    epoch just completed, in that epoch's block order.  Progress
    counters (``total_steps``, ``lb_invocations``, ``msg_acc``) reflect
    logical progress — work re-done after a restore is not re-counted.
    """

    epoch_index: int
    total_steps: int
    lb_invocations: int
    placement_s_max: float
    msg_acc: np.ndarray
    assignment: Optional[np.ndarray]
    alive_nodes: Tuple[int, ...]          #: original node ids still in the job
    node_speed_factor: np.ndarray         #: current cluster health state
    n_ranks: int
    drain_queue: bool
    driver_rng_state: dict
    model_rng_state: dict
    tracker_estimates: Tuple[np.ndarray, np.ndarray]  #: BlockCostTracker.state()
    tables: Dict[str, ColumnTable]        #: collector snapshot

    def clone(self) -> "DriverCheckpoint":
        """Deep copy, so restored state can't alias live driver state."""
        return copy.deepcopy(self)


class CheckpointStore(Protocol):
    """Where checkpoints live.  Only the latest checkpoint is retained —
    the driver's recovery model is single-level, like most production
    AMR checkpointing (Schornbaum & Rüde keep one redundant snapshot)."""

    def save(self, ckpt: DriverCheckpoint) -> None: ...
    def load(self) -> Optional[DriverCheckpoint]: ...


class MemoryCheckpointStore:
    """In-process checkpoint store (deep-copied both ways)."""

    def __init__(self) -> None:
        self._ckpt: Optional[DriverCheckpoint] = None
        self.n_saved = 0

    def save(self, ckpt: DriverCheckpoint) -> None:
        self._ckpt = ckpt.clone()
        self.n_saved += 1

    def load(self) -> Optional[DriverCheckpoint]:
        return self._ckpt.clone() if self._ckpt is not None else None
