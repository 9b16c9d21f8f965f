"""AMR execution substrate: workloads, redistribution, BSP driver.

Implements the execution model of block-based AMR codes (§II): blocks
with telemetry-driven cost tracking, per-window task DAGs, the
SFC→placement→migration redistribution pipeline, and two workload
generators — the Sedov Blast Wave 3D trajectory of Table I and a
galaxy-cooling-style high-variability workload.
"""

from .block import BlockCostTracker
from .cooling import CoolingConfig, CoolingWorkload
from .driver import DriverConfig, RunSummary, run_trajectory
from .redistribution import (
    BLOCK_BYTES_DEFAULT,
    RedistributionOutcome,
    carry_assignment,
    redistribute,
    remap_assignment,
)
from .sedov import (
    TABLE_I_CONFIGS,
    SedovConfig,
    SedovEpoch,
    SedovWorkload,
    scaled_config,
    table_i_config,
)
from .hydro import EulerSolver2D, EulerState, blast_initial_state, sod_initial_state
from .pipeline import BlockSolver, Simulation, SimulationResult
from .taskgraph import Task, TaskGraph, TaskKind, build_exchange_graph, rank_schedule
from .trigger import ImbalanceTrigger, TriggerDecision

__all__ = [
    "BlockSolver",
    "EulerSolver2D",
    "Simulation",
    "SimulationResult",
    "EulerState",
    "blast_initial_state",
    "sod_initial_state",
    "BLOCK_BYTES_DEFAULT",
    "ImbalanceTrigger",
    "TriggerDecision",
    "BlockCostTracker",
    "CoolingConfig",
    "CoolingWorkload",
    "DriverConfig",
    "RedistributionOutcome",
    "RunSummary",
    "SedovConfig",
    "SedovEpoch",
    "SedovWorkload",
    "TABLE_I_CONFIGS",
    "Task",
    "TaskGraph",
    "TaskKind",
    "build_exchange_graph",
    "carry_assignment",
    "rank_schedule",
    "redistribute",
    "remap_assignment",
    "run_trajectory",
    "scaled_config",
    "table_i_config",
]
