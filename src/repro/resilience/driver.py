"""The resilient BSP driver: detect → mitigate → checkpoint → recover.

Extends :func:`repro.amr.driver.run_trajectory` with the closed loop the
paper ran by hand across job submissions:

* **dynamic faults** — a :class:`~repro.simnet.faults.FaultTimeline`
  fires throttle onsets, fail-stop crashes, and fabric-degradation
  windows mid-run (the static :class:`FaultModel` is the degenerate
  empty timeline);
* **online monitoring** — windowed anomaly detection at each epoch
  boundary over the collector's recent step records;
* **mitigation** — flagged nodes are evicted from the cluster and all
  blocks re-placed on the healthy subset; repeated wait spikes that
  implicate ACK recovery enable the drain queue.  Every action is
  charged a simulated cost and logged to telemetry;
* **checkpoint/restart** — driver state (assignment, cost tracker,
  collector, both RNG streams) is checkpointed periodically; a fail-stop
  crash restores the last checkpoint on the survivors and replays.
  Without a checkpoint the job resubmits from scratch — the unmitigated
  baseline every resilience experiment compares against.

The loop itself is :class:`repro.engine.EpochEngine`;
:func:`run_resilient_trajectory` assembles the resilience hook stack
(:mod:`repro.resilience.hooks`) onto it and is bit-identical to the
pre-engine monolithic loop on the same seed — crash, restore, replay
and all (golden parity tests).

Determinism: all stochastic streams are seeded and checkpointed, and
the load-balance charge uses a *modeled* placement time
(``placement_charge_s``) instead of the measured host wall-clock, so
two runs with the same seed produce bit-identical summaries.

Fault-event semantics: events are pinned to *simulation steps*, so a
replay after restore re-fires exactly the events the lost timeline saw.
Work re-done after a restore is not double-counted in progress counters
(``total_steps``, message stats); it *is* counted in ``wall_s``, which
measures the real cost of the run including lost work.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, List, Optional, Sequence, Union

from ..amr.driver import DriverConfig, RunSummary
from ..amr.sedov import SedovEpoch
from ..core.policy import PlacementPolicy, get_policy
from ..simnet.cluster import Cluster
from ..simnet.faults import FaultTimeline
from ..telemetry.anomaly import WindowConfig
from .checkpoint import CheckpointStore, MemoryCheckpointStore
from .mitigation import MitigationEngine
from .monitor import HealthMonitor

__all__ = ["ResilienceConfig", "UNMITIGATED", "run_resilient_trajectory"]


@dataclasses.dataclass(frozen=True)
class ResilienceConfig:
    """Knobs of the detect → mitigate → recover loop.

    Attributes
    ----------
    monitoring:
        Run the windowed health monitor at epoch boundaries and apply
        its mitigations.  Off = the unmitigated arm.
    checkpointing:
        Periodically checkpoint driver state.  Off = a crash resubmits
        the job from scratch (minus the dead node).
    checkpoint_interval_epochs:
        Epochs between checkpoints.
    checkpoint_write_s / restore_s / relaunch_s:
        Simulated costs of writing a checkpoint, restoring from one
        after a crash, and resubmitting from scratch when none exists.
    window:
        Detector window/thresholds for the health monitor.
    min_spikes_for_drain:
        Windowed wait-spike count that triggers drain-queue enablement.
    drain_enable_cost_s / eviction_overhead_s:
        Simulated mitigation prices (see :class:`MitigationEngine`).
    placement_charge_s:
        Deterministic modeled placement time charged to the lb phase in
        place of the measured host wall-clock (determinism; the measured
        time is still recorded in epoch telemetry and the budget guard).
    max_restores:
        Crash-recovery attempts before the run is declared lost.
    """

    monitoring: bool = True
    checkpointing: bool = True
    checkpoint_interval_epochs: int = 5
    checkpoint_write_s: float = 2.0
    restore_s: float = 15.0
    relaunch_s: float = 60.0
    window: WindowConfig = WindowConfig()
    min_spikes_for_drain: int = 2
    drain_enable_cost_s: float = 1.0
    eviction_overhead_s: float = 5.0
    placement_charge_s: float = 0.005
    max_restores: int = 8

    def __post_init__(self) -> None:
        if self.checkpoint_interval_epochs < 1:
            raise ValueError("checkpoint_interval_epochs must be >= 1")
        for f in ("checkpoint_write_s", "restore_s", "relaunch_s",
                  "drain_enable_cost_s", "eviction_overhead_s",
                  "placement_charge_s"):
            if getattr(self, f) < 0:
                raise ValueError(f"{f} must be >= 0")
        if self.max_restores < 0:
            raise ValueError("max_restores must be >= 0")


#: The unmitigated arm: no monitoring, no checkpoints — a crash means a
#: from-scratch resubmission and throttled nodes are never evicted.
UNMITIGATED = ResilienceConfig(monitoring=False, checkpointing=False)


def run_resilient_trajectory(
    policy: Union[PlacementPolicy, str],
    epochs: Iterable[SedovEpoch],
    cluster: Cluster,
    config: DriverConfig = DriverConfig(),
    resilience: ResilienceConfig = ResilienceConfig(),
    timeline: Optional[FaultTimeline] = None,
    store: Optional[CheckpointStore] = None,
    monitor: Optional[HealthMonitor] = None,
    hooks: Optional[Sequence] = None,
) -> RunSummary:
    """Run one policy over a trajectory under a fault timeline.

    ``timeline`` defaults to the degenerate static timeline built from
    ``config.faults``, making this a strict superset of
    :func:`~repro.amr.driver.run_trajectory` semantics (modulo the
    deterministic lb charge).  ``store`` defaults to an in-memory
    checkpoint store.  ``hooks`` appends extra
    :class:`repro.engine.EpochHook` instances after the resilience
    stack (e.g. a :class:`repro.engine.PhaseProfilerHook`).
    """
    from ..engine.core import EpochEngine
    from ..engine.hooks import TelemetryHook
    from ..engine.transport import TransportHook
    from .hooks import CheckpointHook, FaultTimelineHook, GuardHook, MitigationHook

    if isinstance(policy, str):
        policy = get_policy(policy)
    epoch_list: List[SedovEpoch] = list(epochs)
    timeline = timeline if timeline is not None else FaultTimeline.static(config.faults)
    if store is None and resilience.checkpointing:
        store = MemoryCheckpointStore()
    monitor = monitor if monitor is not None else HealthMonitor(resilience.window)
    mit_engine = MitigationEngine(
        min_spikes_for_drain=resilience.min_spikes_for_drain,
        drain_enable_cost_s=resilience.drain_enable_cost_s,
        eviction_overhead_s=resilience.eviction_overhead_s,
    )

    # Static faults are the timeline's base: apply at job start, exactly
    # like the static driver.
    base_cluster = timeline.base.apply_to_cluster(cluster)

    stack: list = [
        TelemetryHook(),
        GuardHook(resilience),
    ]
    if config.transport.is_active:
        # After the guard (sees its placement charge), before the fault
        # timeline: a transport rollback is an after_redistribute event
        # and must land before epoch-end crash handling can abandon it.
        stack.append(TransportHook(mitigation=mit_engine, monitor=monitor))
    stack.append(
        FaultTimelineHook(
            timeline,
            resilience,
            original_cluster=cluster,
            base_cluster=base_cluster,
            monitor=monitor,
            engine=mit_engine,
            store=store,
        )
    )
    if resilience.monitoring:
        stack.append(MitigationHook(resilience, monitor, mit_engine))
    if resilience.checkpointing and store is not None:
        stack.append(CheckpointHook(resilience, store, mit_engine))
    if hooks:
        stack.extend(hooks)
    return EpochEngine(
        policy, epoch_list, base_cluster, config,
        hooks=stack, faults=timeline.base,
    ).run()
