"""Run specification types shared by every execution arm.

``DriverConfig`` (execution-environment knobs) and ``RunSummary``
(aggregate results) moved here verbatim from ``repro.amr.driver`` when
the epoch loop was unified into :class:`repro.engine.EpochEngine`; the
old import path still re-exports both.
"""

from __future__ import annotations

import dataclasses

from ..simnet.faults import (
    NO_FAULTS,
    NO_TRANSPORT_FAULTS,
    FaultModel,
    TransportFaultModel,
)
from ..simnet.machine import DEFAULT_FABRIC, FabricSpec
from ..simnet.tuning import TUNED, TuningConfig
from ..telemetry.collector import TelemetryCollector

__all__ = ["DriverConfig", "RunSummary"]


@dataclasses.dataclass(frozen=True)
class DriverConfig:
    """Execution-environment knobs for a simulated run."""

    fabric: FabricSpec = DEFAULT_FABRIC
    tuning: TuningConfig = TUNED
    faults: FaultModel = NO_FAULTS
    #: unreliable-fabric model; the rate-0 default keeps every run on
    #: the reliable fast path (bit-identical to the pre-transport layer)
    transport: TransportFaultModel = NO_TRANSPORT_FAULTS
    exchange_rounds: int = 4
    #: fixed per-redistribution cost besides placement + migration: mesh
    #: teardown/rebuild, neighbor re-discovery, buffer reallocation, and
    #: the metadata collectives — the bulk of the paper's ~3% lb phase
    redistribution_overhead_s: float = 0.030
    #: sampled steps per epoch used to estimate the per-step noise
    samples_per_epoch: int = 3
    #: multiplicative measurement noise on telemetry-measured block costs
    cost_measurement_sigma: float = 0.05
    #: feed measured costs to the policy; False reproduces the framework
    #: default of cost=1 for every block (the baseline's world view)
    use_measured_costs: bool = True
    #: deterministic modeled placement time charged to the lb phase in
    #: place of the measured host wall-clock (same contract as
    #: ResilienceConfig.placement_charge_s).  None = charge the measured
    #: time, the paper-faithful default.  Set it to make two same-seed
    #: runs — serial or parallel — bit-identical in wall_s.
    placement_charge_s: "float | None" = None
    seed: int = 0
    #: look exchange patterns up in the process-wide
    #: :class:`~repro.perf.cache.SharedPatternCache` instead of computing
    #: them directly — the multi-tenant service mode, where concurrent
    #: jobs pool one content-keyed store.  Hits are bit-identical, so
    #: this is excluded from repr/compare: it must never change a sweep
    #: key, a journal key, or a digest.
    pattern_cache_shared: bool = dataclasses.field(
        default=False, repr=False, compare=False
    )
    #: cancel-flag file consumed by a :class:`~repro.engine.hooks.
    #: CancellationHook` the engine attaches automatically (cooperative
    #: cancellation at epoch boundaries).  Excluded from repr/compare
    #: for the same reason: a resumed run must hash to the same sweep
    #: key whether or not a cancel flag is configured.
    cancel_path: "str | None" = dataclasses.field(
        default=None, repr=False, compare=False
    )
    #: absolute wall-clock deadline (``time.time()`` epoch seconds)
    #: enforced by the same CancellationHook at epoch boundaries —
    #: :class:`~repro.perf.cancel.DeadlineExceeded` past it.  Excluded
    #: from repr/compare like ``cancel_path``: a deadline bounds *when*
    #: a run may stop, never what it computes, so keys and digests must
    #: not see it.
    deadline_ts: "float | None" = dataclasses.field(
        default=None, repr=False, compare=False
    )


@dataclasses.dataclass
class RunSummary:
    """Aggregate results of one (policy, trajectory) run."""

    policy: str
    n_ranks: int
    total_steps: int
    n_epochs: int
    lb_invocations: int
    wall_s: float                   #: simulated end-to-end wall time
    phase_rank_seconds: dict        #: compute/comm/sync/lb rank-second totals
    final_blocks: int
    placement_s_max: float          #: worst single placement computation
    collector: TelemetryCollector
    #: step-weighted mean per-step message-pair counts (Fig. 6c inputs)
    msg_intra_rank: float = 0.0
    msg_local: float = 0.0
    msg_remote: float = 0.0
    #: resilience counters (populated by the resilience hook stack; zero
    #: for plain runs)
    n_checkpoints: int = 0
    n_restores: int = 0
    n_evictions: int = 0
    n_drain_enables: int = 0
    n_policy_fallbacks: int = 0
    mitigation_s: float = 0.0       #: simulated seconds spent on mitigations
    evicted_nodes: tuple = ()       #: original ids of nodes dropped mid-run
    #: transport counters (populated by a TransportHook; zero on a
    #: reliable fabric)
    n_retransmits: int = 0
    n_transport_drops: int = 0
    n_dup_suppressed: int = 0
    n_transport_reorders: int = 0
    n_rollbacks: int = 0            #: redistributions aborted mid-migration
    n_degraded_epochs: int = 0      #: epochs run on a stale placement
    transport_stall_s: float = 0.0  #: simulated seconds lost to retransmits
    #: shared pattern-store counters of this run (zero outside the service)
    pattern_cache_hits: int = 0
    pattern_cache_misses: int = 0
    pattern_cache_evictions: int = 0

    @property
    def remote_fraction(self) -> float:
        """Remote share of MPI-visible messages (Fig. 6c's 64%)."""
        vis = self.msg_local + self.msg_remote
        return self.msg_remote / vis if vis else 0.0

    def phase_fractions(self) -> dict:
        total = sum(self.phase_rank_seconds.values())
        if total == 0:
            return {k: 0.0 for k in self.phase_rank_seconds}
        return {k: v / total for k, v in self.phase_rank_seconds.items()}

    def row(self) -> str:
        f = self.phase_fractions()
        return (
            f"{self.policy:<10} ranks={self.n_ranks:<6} wall={self.wall_s:10.1f}s "
            f"comp={f['compute']:6.1%} comm={f['comm']:6.1%} "
            f"sync={f['sync']:6.1%} lb={f['lb']:6.1%} "
            f"epochs={self.n_epochs} blocks={self.final_blocks}"
        )
