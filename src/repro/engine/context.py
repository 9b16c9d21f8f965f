"""Engine state and the hook control channel.

:class:`EngineContext` is the single mutable record of everything the
canonical epoch loop knows: the simulated environment (cluster, tuning,
BSP model), the run's accumulators (wall clock, step and lb counters,
message statistics), the remesh carry state, the resilience counters,
and the per-epoch transients (measured costs, redistribution outcome,
exchange pattern, sampled-step bookkeeping).  Hooks receive the context
at every lifecycle point and may read or mutate it.

Two kinds of mutation deserve ceremony, and get the *control channel*:

``request_reconfigure(cluster=..., tuning=..., faults=...)``
    The simulated world changed shape (throttle onset, node eviction,
    drain-queue enable, fabric-degradation window).  Requests queue and
    the engine applies them — updating the context fields *and* calling
    :meth:`BSPModel.reconfigure` — right after the posting hook
    returns, so the next hook in registration order sees the new world.

``request_restore(handler)``
    The run cannot continue from here (fail-stop crash).  The engine
    stops dispatching further hooks for the current lifecycle event,
    discards any not-yet-applied reconfigure requests (restore wins
    over reconfigure in the same epoch), abandons the rest of the
    epoch, and invokes ``handler(ctx)``.  The handler rebuilds whatever
    state it needs (typically from a checkpoint) and sets
    ``ctx.cursor`` to the epoch index to resume from.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from ..amr.block import BlockCostTracker
from ..amr.redistribution import RedistributionOutcome, RedistributionPlan
from ..core.policy import PlacementPolicy
from ..perf.cache import PatternCacheHandle
from ..simnet.cluster import Cluster
from ..simnet.runtime import BSPModel, ExchangePattern
from ..simnet.tuning import TuningConfig
from ..telemetry.collector import TelemetryCollector
from .types import DriverConfig

__all__ = ["EngineContext", "RestoreHandler"]

#: A restore handler mutates the context back to a resumable state and
#: sets ``ctx.cursor`` to the epoch index to replay from.
RestoreHandler = Callable[["EngineContext"], None]


@dataclasses.dataclass
class EngineContext:
    """Mutable state of one :class:`~repro.engine.EpochEngine` run."""

    # -- fixed for the run ------------------------------------------------
    policy: PlacementPolicy
    config: DriverConfig
    epochs: List[Any]                     #: materialized trajectory

    # -- simulated environment (replaced by reconfigure/restore) ----------
    cluster: Cluster
    tuning: TuningConfig
    model: BSPModel
    collector: TelemetryCollector
    tracker: BlockCostTracker
    rng: np.random.Generator

    # -- loop position and remesh carry -----------------------------------
    cursor: int = 0                       #: index of the epoch being run
    #: packed keys of the previous epoch's blocks (the carry's old side)
    prev_keys: Optional[np.ndarray] = None
    prev_assignment: Optional[np.ndarray] = None

    # -- run accumulators --------------------------------------------------
    wall: float = 0.0
    total_steps: int = 0
    lb_invocations: int = 0
    placement_max: float = 0.0
    final_blocks: int = 0
    msg_acc: np.ndarray = dataclasses.field(
        default_factory=lambda: np.zeros(3)
    )                                     #: intra-rank, local, remote

    # -- resilience bookkeeping (zero unless resilience hooks run) ---------
    alive: List[int] = dataclasses.field(default_factory=list)
    evicted_nodes: List[int] = dataclasses.field(default_factory=list)
    n_checkpoints: int = 0
    n_restores: int = 0
    n_evictions: int = 0
    n_drain_enables: int = 0
    n_policy_fallbacks: int = 0
    mitigation_s: float = 0.0

    # -- transport bookkeeping (zero unless a TransportHook runs) ----------
    n_retransmits: int = 0
    n_transport_drops: int = 0
    n_dup_suppressed: int = 0
    n_transport_reorders: int = 0
    n_rollbacks: int = 0
    n_degraded_epochs: int = 0
    transport_stall_s: float = 0.0

    # -- per-epoch transients (valid between on_epoch_start/_end) ----------
    policy_costs: Optional[np.ndarray] = None
    carried: Optional[np.ndarray] = None
    #: the prepared (uncommitted) redistribution of the current epoch
    plan: Optional[RedistributionPlan] = None
    outcome: Optional[RedistributionOutcome] = None
    #: hook-provided replacement for the measured placement time in the
    #: lb charge; ``None`` means charge ``outcome.placement_s``
    placement_charge: Optional[float] = None
    lb_per_rank: float = 0.0
    pattern: Optional[ExchangePattern] = None
    #: this run's view of the shared pattern store (service runs only;
    #: None = compute every epoch's pattern directly)
    pattern_cache: Optional[PatternCacheHandle] = None
    sample_count: int = 0                 #: sampled steps this epoch (k)
    step_weight: float = 1.0              #: real steps per sampled step
    epoch_wall: float = 0.0               #: simulated wall of this epoch

    # -- control channel ----------------------------------------------------
    _reconfigures: List[Dict[str, Any]] = dataclasses.field(default_factory=list)
    _restore: Optional[RestoreHandler] = None

    # ------------------------------------------------------------------ #

    def request_reconfigure(
        self,
        cluster: Optional[Cluster] = None,
        tuning: Optional[TuningConfig] = None,
        faults=None,
    ) -> None:
        """Queue a simulated-environment change (applied after the
        current hook returns, in posting order)."""
        req = {}
        if cluster is not None:
            req["cluster"] = cluster
        if tuning is not None:
            req["tuning"] = tuning
        if faults is not None:
            req["faults"] = faults
        if not req:
            raise ValueError("request_reconfigure needs at least one change")
        self._reconfigures.append(req)

    def request_restore(self, handler: RestoreHandler) -> None:
        """Queue a restore; wins over any reconfigure in the same epoch.

        Only one restore can be pending — the epoch is abandoned when
        the posting hook returns, so a second request cannot arise from
        a well-ordered hook stack.
        """
        if self._restore is not None:
            raise RuntimeError("a restore is already pending this epoch")
        self._restore = handler
