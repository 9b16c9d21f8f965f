"""Telemetry record schemas.

Structured schemas are the point (Lesson 4): every record carries the
dimensions diagnosis needs to slice by — timestep, rank, and phase —
with measures as plain numeric columns.  Dimension values are integers
(rank, step, epoch, node) so tables stay columnar-friendly.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

__all__ = ["RANK_STEP_SCHEMA", "EPOCH_SCHEMA"]

#: Per-(step, rank) record: the workhorse table, one row per rank per
#: simulated (or sampled) timestep.
RANK_STEP_SCHEMA: Dict[str, np.dtype] = {
    "step": np.dtype(np.int64),        # timestep index
    "epoch": np.dtype(np.int64),       # redistribution epoch index
    "rank": np.dtype(np.int64),
    "node": np.dtype(np.int64),
    "compute_s": np.dtype(np.float64),
    "comm_s": np.dtype(np.float64),    # boundary exchange incl. MPI_Wait
    "sync_s": np.dtype(np.float64),    # collective stall
    "lb_s": np.dtype(np.float64),      # redistribution (placement + migration)
    "n_blocks": np.dtype(np.int64),    # blocks owned this epoch
    "load": np.dtype(np.float64),      # assigned compute cost
    "msgs_local": np.dtype(np.int64),  # incoming intra-node MPI messages
    "msgs_remote": np.dtype(np.int64),  # incoming inter-node MPI messages
    "weight": np.dtype(np.float64),    # real steps this sampled row represents
}

#: Per-epoch summary record, one row per redistribution interval.
EPOCH_SCHEMA: Dict[str, np.dtype] = {
    "epoch": np.dtype(np.int64),
    "step_start": np.dtype(np.int64),
    "n_steps": np.dtype(np.int64),
    "n_blocks": np.dtype(np.int64),
    "n_refined": np.dtype(np.int64),
    "n_coarsened": np.dtype(np.int64),
    "placement_s": np.dtype(np.float64),   # placement computation time
    "migration_blocks": np.dtype(np.int64),
    "epoch_wall_s": np.dtype(np.float64),  # simulated wall time of the epoch
}
