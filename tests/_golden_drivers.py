"""Frozen pre-refactor drivers: the golden parity reference.

Verbatim copies of ``repro.amr.driver`` and ``repro.resilience.driver``
as they stood *before* the hook-based ``repro.engine`` refactor
(commit 38e24c0), with only the import paths rewritten to absolute form,
the public names prefixed ``golden_``, and ``epoch.blocks`` read as
``epoch.keys`` (the same blocks as packed keys) since epochs no longer
carry a :class:`~repro.mesh.geometry.BlockIndex` list.  The parity tests in
``test_engine_parity.py`` assert that the engine-based drivers produce
bit-identical RunSummary and telemetry tables against these.

Do not "fix" or modernize this module: its value is that it does not
change when the live drivers do.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, List, Optional, Union

import numpy as np

from repro.core.metrics import message_stats
from repro.core.policy import PlacementPolicy
from repro.simnet.cluster import Cluster
from repro.simnet.faults import NO_FAULTS, FaultModel
from repro.simnet.machine import DEFAULT_FABRIC, FabricSpec
from repro.simnet.runtime import BSPModel, ExchangePattern
from repro.simnet.tuning import TUNED, TuningConfig
from repro.telemetry.collector import TelemetryCollector
from repro.amr.block import BlockCostTracker
from repro.amr.redistribution import carry_assignment, redistribute
from repro.amr.sedov import SedovEpoch
from repro.core.policy import get_policy
from repro.simnet.faults import FaultTimeline
from repro.telemetry.anomaly import WindowConfig
from repro.resilience.checkpoint import CheckpointStore, DriverCheckpoint, MemoryCheckpointStore
from repro.resilience.guard import GuardedPolicy
from repro.resilience.mitigation import MITIGATION_KINDS, MitigationAction, MitigationEngine
from repro.resilience.monitor import HealthMonitor




from repro.amr.driver import DriverConfig, RunSummary  # noqa: E402


def golden_run_trajectory(
    policy: PlacementPolicy,
    epochs: Iterable[SedovEpoch],
    cluster: Cluster,
    config: DriverConfig = DriverConfig(),
    health_monitor=None,
) -> RunSummary:
    """Run one policy over a workload trajectory; returns the summary.

    ``epochs`` may be a generator (single pass) or a list (shared across
    policies).  The policy sees *measured* costs — true costs perturbed
    by measurement noise — never the true costs themselves.

    ``health_monitor`` (a :class:`repro.resilience.HealthMonitor`) is
    observed at every epoch boundary but never acted on — passive
    detection without mitigation.  The mitigating loop lives in
    :func:`repro.resilience.run_resilient_trajectory`.
    """
    rng = np.random.default_rng(config.seed)
    model = BSPModel(
        cluster,
        fabric=config.fabric,
        tuning=config.tuning,
        faults=config.faults,
        seed=config.seed,
        exchange_rounds=config.exchange_rounds,
    )
    collector = TelemetryCollector(cluster.n_ranks, cluster.ranks_per_node)
    tracker = BlockCostTracker()

    prev_blocks = None
    prev_assignment: Optional[np.ndarray] = None
    wall = 0.0
    total_steps = 0
    n_epochs = 0
    lb_invocations = 0
    placement_max = 0.0
    final_blocks = 0
    msg_acc = np.zeros(3)  # intra-rank, local, remote (step-weighted)

    for epoch in epochs:
        n_epochs += 1
        final_blocks = len(epoch.keys)

        # --- telemetry-driven cost measurement --------------------------
        measured = epoch.base_costs * rng.lognormal(
            0.0, config.cost_measurement_sigma, size=epoch.base_costs.shape[0]
        )
        tracker.observe_all(epoch.keys, measured)
        if config.use_measured_costs:
            policy_costs = tracker.estimates(epoch.keys)
        else:
            policy_costs = np.ones(len(epoch.keys), dtype=np.float64)

        # --- redistribution ---------------------------------------------
        if prev_blocks is not None:
            carried = carry_assignment(prev_blocks, prev_assignment, epoch.keys)
        else:
            carried = None
        outcome = redistribute(
            policy, policy_costs, cluster.n_ranks, carried, config.fabric
        )
        assignment = outcome.result.assignment
        placement_max = max(placement_max, outcome.placement_s)
        if prev_blocks is not None:
            lb_invocations += 1
            lb_per_rank = outcome.lb_s + config.redistribution_overhead_s
        else:
            lb_per_rank = outcome.lb_s  # startup placement: no remesh cost

        # --- simulate the epoch's steps ----------------------------------
        pattern = ExchangePattern.from_mesh(
            epoch.graph, assignment, epoch.base_costs, cluster, config.fabric
        )
        ms = message_stats(epoch.graph, assignment, cluster.ranks_per_node)
        msg_acc += np.array([ms.intra_rank, ms.local, ms.remote]) * epoch.n_steps
        k = min(epoch.n_steps, config.samples_per_epoch)
        per_rank_blocks = np.bincount(assignment, minlength=cluster.n_ranks)
        weight = epoch.n_steps / k
        epoch_wall = 0.0
        for s in range(k):
            phases = model.step(pattern)
            lb_term = lb_per_rank if s == 0 else 0.0
            collector.record_step(
                step=epoch.step_start + s,
                epoch=epoch.index,
                compute_s=phases.compute,
                comm_s=phases.comm,
                sync_s=phases.sync,
                lb_s=np.full(cluster.n_ranks, lb_term / max(weight, 1.0))
                if lb_term
                else 0.0,
                n_blocks=per_rank_blocks,
                load=pattern.loads,
                msgs_local=pattern.in_local.astype(np.int64),
                msgs_remote=pattern.in_remote.astype(np.int64),
                weight=weight,
            )
            epoch_wall += phases.step_time
        epoch_wall = epoch_wall / k * epoch.n_steps + lb_per_rank
        collector.record_epoch(
            epoch=epoch.index,
            step_start=epoch.step_start,
            n_steps=epoch.n_steps,
            n_blocks=len(epoch.keys),
            n_refined=epoch.n_refined,
            n_coarsened=epoch.n_coarsened,
            placement_s=outcome.placement_s,
            migration_blocks=outcome.migrated_blocks,
            epoch_wall_s=epoch_wall,
        )
        wall += epoch_wall
        total_steps += epoch.n_steps
        prev_blocks = epoch.keys
        prev_assignment = assignment
        if health_monitor is not None:
            health_monitor.observe(collector, epoch.index)

    phases = collector.phase_totals()
    msg_mean = msg_acc / max(total_steps, 1)
    return RunSummary(
        policy=policy.name,
        n_ranks=cluster.n_ranks,
        total_steps=total_steps,
        n_epochs=n_epochs,
        lb_invocations=lb_invocations,
        wall_s=wall,
        phase_rank_seconds=phases,
        final_blocks=final_blocks,
        placement_s_max=placement_max,
        collector=collector,
        msg_intra_rank=float(msg_mean[0]),
        msg_local=float(msg_mean[1]),
        msg_remote=float(msg_mean[2]),
    )






@dataclasses.dataclass(frozen=True)
class GoldenResilienceConfig:
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
GOLDEN_UNMITIGATED = GoldenResilienceConfig(monitoring=False, checkpointing=False)


def _remap(assignment: np.ndarray, rank_map: np.ndarray) -> np.ndarray:
    """Apply an eviction rank map to an assignment; −1 stays −1."""
    out = np.where(assignment >= 0, rank_map[assignment], -1)
    return out.astype(np.int64)


def golden_run_resilient_trajectory(
    policy: Union[PlacementPolicy, str],
    epochs: Iterable[SedovEpoch],
    cluster: Cluster,
    config: DriverConfig = DriverConfig(),
    resilience: "GoldenResilienceConfig" = None,  # None -> GoldenResilienceConfig()
    timeline: Optional[FaultTimeline] = None,
    store: Optional[CheckpointStore] = None,
    monitor: Optional[HealthMonitor] = None,
) -> RunSummary:
    """Run one policy over a trajectory under a fault timeline.

    ``timeline`` defaults to the degenerate static timeline built from
    ``config.faults``, making this a strict superset of
    :func:`~repro.amr.driver.run_trajectory` semantics (modulo the
    deterministic lb charge).  ``store`` defaults to an in-memory
    checkpoint store; pass a
    :class:`~repro.resilience.checkpoint.DirectoryCheckpointStore` to
    exercise the on-disk format.
    """
    if resilience is None:
        resilience = GoldenResilienceConfig()
    if isinstance(policy, str):
        policy = get_policy(policy)
    epoch_list: List[SedovEpoch] = list(epochs)
    timeline = timeline if timeline is not None else FaultTimeline.static(config.faults)
    if store is None and resilience.checkpointing:
        store = MemoryCheckpointStore()
    monitor = monitor if monitor is not None else HealthMonitor(resilience.window)
    engine = MitigationEngine(
        min_spikes_for_drain=resilience.min_spikes_for_drain,
        drain_enable_cost_s=resilience.drain_enable_cost_s,
        eviction_overhead_s=resilience.eviction_overhead_s,
    )

    # Static faults are the timeline's base: apply at job start, exactly
    # like the static driver.
    base_cluster = timeline.base.apply_to_cluster(cluster)
    cur = base_cluster
    alive: List[int] = list(range(cur.n_nodes))
    tuning = config.tuning
    rng = np.random.default_rng(config.seed)
    model = BSPModel(
        cur,
        fabric=config.fabric,
        tuning=tuning,
        faults=timeline.base,
        seed=config.seed,
        exchange_rounds=config.exchange_rounds,
    )
    collector = TelemetryCollector(cur.n_ranks, cur.ranks_per_node)
    tracker = BlockCostTracker()

    wall = 0.0
    total_steps = 0
    lb_invocations = 0
    placement_max = 0.0
    final_blocks = 0
    msg_acc = np.zeros(3)
    prev_blocks = None
    prev_assignment: Optional[np.ndarray] = None

    n_checkpoints = n_restores = n_evictions = n_drain_enables = 0
    n_policy_fallbacks = 0
    mitigation_s = 0.0
    evicted_original: List[int] = []
    restores_done = 0

    def save_checkpoint(next_epoch: int, at_step: int, epoch_id: int) -> None:
        nonlocal wall, mitigation_s, n_checkpoints
        collector.record_mitigation(
            at_step, epoch_id, MITIGATION_KINDS["checkpoint"], 0,
            resilience.checkpoint_write_s,
        )
        ckpt = DriverCheckpoint(
            epoch_index=next_epoch,
            total_steps=total_steps,
            lb_invocations=lb_invocations,
            placement_s_max=placement_max,
            msg_acc=msg_acc.copy(),
            assignment=None if prev_assignment is None else prev_assignment.copy(),
            alive_nodes=tuple(alive),
            node_speed_factor=cur.node_speed_factor.copy(),
            n_ranks=cur.n_ranks,
            drain_queue=tuning.drain_queue,
            driver_rng_state=rng.bit_generator.state,
            model_rng_state=model.rng_state(),
            tracker_estimates=tracker.state(),
            tables=collector.snapshot_tables(),
        )
        store.save(ckpt)
        engine.record(
            MitigationAction(
                "checkpoint", step=at_step, epoch=epoch_id,
                cost_s=resilience.checkpoint_write_s,
            )
        )
        wall += resilience.checkpoint_write_s
        mitigation_s += resilience.checkpoint_write_s
        n_checkpoints += 1

    if resilience.checkpointing and store is not None:
        # Initial checkpoint: a crash before the first interval restores
        # to the job start instead of paying a full resubmission.
        save_checkpoint(0, 0, 0)

    i = 0
    while i < len(epoch_list):
        epoch = epoch_list[i]
        lo = epoch.step_start
        hi = lo + epoch.n_steps

        # --- dynamic fault onsets firing inside this epoch --------------
        for ev in timeline.throttle_onsets_in(lo, hi):
            mapped = [alive.index(n) for n in ev.nodes if n in alive]
            if mapped:
                cur = cur.throttle_nodes(mapped, factor=ev.factor)
                model.reconfigure(cluster=cur)
        model.reconfigure(faults=timeline.fault_model_at(lo))

        # --- telemetry-driven cost measurement --------------------------
        measured = epoch.base_costs * rng.lognormal(
            0.0, config.cost_measurement_sigma, size=epoch.base_costs.shape[0]
        )
        tracker.observe_all(epoch.keys, measured)
        if config.use_measured_costs:
            policy_costs = tracker.estimates(epoch.keys)
        else:
            policy_costs = np.ones(len(epoch.keys), dtype=np.float64)

        # --- guarded redistribution on the current (healthy) cluster ----
        if prev_blocks is not None:
            carried = carry_assignment(prev_blocks, prev_assignment, epoch.keys)
        else:
            carried = None
        fallbacks_before = getattr(policy, "fallback_count", 0)
        backoff_before = getattr(policy, "simulated_backoff_s", 0.0)
        outcome = redistribute(
            policy, policy_costs, cur.n_ranks, carried, config.fabric
        )
        assignment = outcome.result.assignment
        placement_max = max(placement_max, outcome.placement_s)
        backoff_s = getattr(policy, "simulated_backoff_s", 0.0) - backoff_before
        fallbacks = getattr(policy, "fallback_count", 0) - fallbacks_before
        if fallbacks:
            n_policy_fallbacks += fallbacks
            collector.record_mitigation(
                lo, epoch.index, MITIGATION_KINDS["policy_fallback"], 0, backoff_s
            )
        if isinstance(policy, GuardedPolicy):
            policy.drain_events()

        placement_charge = resilience.placement_charge_s + backoff_s
        lb_per_rank = outcome.migration_s + placement_charge
        if prev_blocks is not None:
            lb_invocations += 1
            lb_per_rank += config.redistribution_overhead_s

        # --- simulate the epoch's steps ----------------------------------
        pattern = ExchangePattern.from_mesh(
            epoch.graph, assignment, epoch.base_costs, cur, config.fabric
        )
        ms = message_stats(epoch.graph, assignment, cur.ranks_per_node)
        msg_acc += np.array([ms.intra_rank, ms.local, ms.remote]) * epoch.n_steps
        k = min(epoch.n_steps, config.samples_per_epoch)
        per_rank_blocks = np.bincount(assignment, minlength=cur.n_ranks)
        weight = epoch.n_steps / k
        epoch_wall = 0.0
        for s in range(k):
            phases = model.step(pattern)
            lb_term = lb_per_rank if s == 0 else 0.0
            collector.record_step(
                step=lo + s,
                epoch=epoch.index,
                compute_s=phases.compute,
                comm_s=phases.comm,
                sync_s=phases.sync,
                lb_s=np.full(cur.n_ranks, lb_term / max(weight, 1.0))
                if lb_term
                else 0.0,
                n_blocks=per_rank_blocks,
                load=pattern.loads,
                msgs_local=pattern.in_local.astype(np.int64),
                msgs_remote=pattern.in_remote.astype(np.int64),
                weight=weight,
            )
            epoch_wall += phases.step_time
        epoch_wall = epoch_wall / k * epoch.n_steps + lb_per_rank
        collector.record_epoch(
            epoch=epoch.index,
            step_start=lo,
            n_steps=epoch.n_steps,
            n_blocks=len(epoch.keys),
            n_refined=epoch.n_refined,
            n_coarsened=epoch.n_coarsened,
            placement_s=outcome.placement_s,
            migration_blocks=outcome.migrated_blocks,
            epoch_wall_s=epoch_wall,
        )
        wall += epoch_wall
        total_steps += epoch.n_steps
        final_blocks = len(epoch.keys)
        prev_blocks = epoch.keys
        prev_assignment = assignment

        # --- fail-stop crash inside this epoch ---------------------------
        crashes = [c for c in timeline.crashes_in(lo, hi) if c.node in alive]
        if crashes:
            restores_done += 1
            if restores_done > resilience.max_restores:
                raise RuntimeError(
                    f"run lost: {restores_done} crash recoveries exceed "
                    f"max_restores={resilience.max_restores}"
                )
            dead = sorted(c.node for c in crashes)
            crash_step = min(c.step for c in crashes)
            ckpt = store.load() if (resilience.checkpointing and store) else None
            if ckpt is not None:
                # Restore the last checkpoint: the job relaunches on the
                # survivors and replays from the checkpointed epoch.
                recovery_cost = resilience.restore_s
                collector.restore_tables(ckpt.tables)
                tracker.load_state(ckpt.tracker_estimates)
                rng.bit_generator.state = ckpt.driver_rng_state
                model.set_rng_state(ckpt.model_rng_state)
                alive = list(ckpt.alive_nodes)
                cur = Cluster(
                    n_ranks=ckpt.n_ranks,
                    machine=cluster.machine,
                    node_speed_factor=ckpt.node_speed_factor.copy(),
                    nodes_per_switch=cluster.nodes_per_switch,
                )
                if tuning.drain_queue != ckpt.drain_queue:
                    tuning = dataclasses.replace(
                        tuning, drain_queue=ckpt.drain_queue
                    )
                total_steps = ckpt.total_steps
                lb_invocations = ckpt.lb_invocations
                placement_max = max(placement_max, ckpt.placement_s_max)
                msg_acc = ckpt.msg_acc.copy()
                i_next = ckpt.epoch_index
                restored_assignment = ckpt.assignment
            else:
                # No checkpoint: full resubmission from step 0.
                recovery_cost = resilience.relaunch_s
                collector = TelemetryCollector(
                    base_cluster.n_ranks, base_cluster.ranks_per_node
                )
                tracker = BlockCostTracker()
                rng = np.random.default_rng(config.seed)
                alive = list(range(base_cluster.n_nodes))
                cur = base_cluster
                tuning = config.tuning
                model = BSPModel(
                    cur,
                    fabric=config.fabric,
                    tuning=tuning,
                    faults=timeline.base,
                    seed=config.seed,
                    exchange_rounds=config.exchange_rounds,
                )
                total_steps = 0
                lb_invocations = 0
                msg_acc = np.zeros(3)
                i_next = 0
                restored_assignment = None

            # The dead node leaves the job either way.
            dead_idx = [alive.index(n) for n in dead if n in alive]
            lost_blocks = 0
            if dead_idx:
                rank_map = cur.eviction_rank_map(dead_idx)
                cur = cur.evict_nodes(dead_idx)
                for n in dead:
                    if n in alive:
                        alive.remove(n)
                        evicted_original.append(n)
                n_evictions += len(dead_idx)
                if restored_assignment is not None and i_next > 0:
                    prev_assignment = _remap(restored_assignment, rank_map)
                    prev_blocks = epoch_list[i_next - 1].keys
                    lost_blocks = int((prev_assignment < 0).sum())
                else:
                    prev_assignment = None
                    prev_blocks = None
                collector.reconfigure(cur.n_ranks, cur.ranks_per_node)
                model.reconfigure(cluster=cur)
                evict_cost = engine.eviction_cost_s(lost_blocks, config.fabric)
                engine.record(
                    MitigationAction(
                        "evict", step=crash_step, epoch=epoch.index,
                        nodes=tuple(dead), cost_s=evict_cost,
                        detail="fail-stop crash",
                    )
                )
                collector.record_mitigation(
                    crash_step, epoch.index, MITIGATION_KINDS["evict"],
                    len(dead_idx), evict_cost,
                )
                wall += evict_cost
                mitigation_s += evict_cost
            elif restored_assignment is not None and i_next > 0:
                prev_assignment = restored_assignment
                prev_blocks = epoch_list[i_next - 1].keys
            else:
                prev_assignment = None
                prev_blocks = None

            engine.record(
                MitigationAction(
                    "restore", step=crash_step, epoch=epoch.index,
                    nodes=tuple(dead), cost_s=recovery_cost,
                    detail="checkpoint restore" if ckpt is not None
                    else "from-scratch resubmission",
                )
            )
            collector.record_mitigation(
                crash_step, epoch.index, MITIGATION_KINDS["restore"],
                len(dead), recovery_cost,
            )
            wall += recovery_cost
            mitigation_s += recovery_cost
            n_restores += 1
            monitor.notify_reconfigured(collector)
            i = i_next
            continue

        # --- epoch-boundary health monitoring + mitigation ---------------
        if resilience.monitoring:
            assessment = monitor.observe(collector, epoch.index)
            if assessment is not None and assessment.any:
                node_of_block = np.asarray(assignment) // cur.ranks_per_node
                blocks_per_node = {
                    int(n): int(c)
                    for n, c in zip(*np.unique(node_of_block, return_counts=True))
                }
                actions = engine.plan(
                    assessment,
                    step=hi - 1,
                    epoch=epoch.index,
                    drain_enabled=tuning.drain_queue,
                    n_nodes_alive=cur.n_nodes,
                    blocks_per_node=blocks_per_node,
                    fabric=config.fabric,
                )
                for act in actions:
                    if act.kind == "drain_queue":
                        tuning = dataclasses.replace(tuning, drain_queue=True)
                        model.reconfigure(tuning=tuning)
                        n_drain_enables += 1
                    elif act.kind == "evict":
                        idxs = list(act.nodes)
                        originals = [alive[j] for j in idxs]
                        rank_map = cur.eviction_rank_map(idxs)
                        cur = cur.evict_nodes(idxs)
                        for n in originals:
                            alive.remove(n)
                            evicted_original.append(n)
                        n_evictions += len(idxs)
                        prev_assignment = _remap(prev_assignment, rank_map)
                        collector.reconfigure(cur.n_ranks, cur.ranks_per_node)
                        model.reconfigure(cluster=cur)
                        monitor.notify_reconfigured(collector)
                    collector.record_mitigation(
                        hi - 1, epoch.index, act.kind_code, len(act.nodes),
                        act.cost_s,
                    )
                    wall += act.cost_s
                    mitigation_s += act.cost_s

        # --- periodic checkpoint ------------------------------------------
        if (
            resilience.checkpointing
            and store is not None
            and (i + 1) % resilience.checkpoint_interval_epochs == 0
            and i + 1 < len(epoch_list)
        ):
            save_checkpoint(i + 1, hi - 1, epoch.index)

        i += 1

    phases = collector.phase_totals()
    msg_mean = msg_acc / max(total_steps, 1)
    return RunSummary(
        policy=policy.name,
        n_ranks=cur.n_ranks,
        total_steps=total_steps,
        n_epochs=len(epoch_list),
        lb_invocations=lb_invocations,
        wall_s=wall,
        phase_rank_seconds=phases,
        final_blocks=final_blocks,
        placement_s_max=placement_max,
        collector=collector,
        msg_intra_rank=float(msg_mean[0]),
        msg_local=float(msg_mean[1]),
        msg_remote=float(msg_mean[2]),
        n_checkpoints=n_checkpoints,
        n_restores=n_restores,
        n_evictions=n_evictions,
        n_drain_enables=n_drain_enables,
        n_policy_fallbacks=n_policy_fallbacks,
        mitigation_s=mitigation_s,
        evicted_nodes=tuple(evicted_original),
    )
