"""Resilience as engine hooks: guard, faults, mitigation, checkpoints.

Each hook ports one concern of the old monolithic resilient driver loop
onto :class:`repro.engine.EpochEngine`'s lifecycle, preserving its
arithmetic and ordering exactly (the golden parity tests hold the line,
crash/restore/replay included).  Stack order matters at ``on_epoch_end``:

1. ``TelemetryHook`` — the epoch's telemetry lands before anything can
   abandon it;
2. ``GuardHook`` — (no epoch-end action);
3. ``FaultTimelineHook`` — a fail-stop crash requests a restore, which
   short-circuits monitoring and checkpointing for this epoch;
4. ``MitigationHook`` — healthy epoch boundary: assess and act;
5. ``CheckpointHook`` — periodic save *after* mitigations applied, so
   the checkpoint captures the post-mitigation world.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

import numpy as np

from ..amr.redistribution import remap_assignment
from ..engine.context import EngineContext
from ..engine.core import fresh_run_state
from ..engine.hooks import EpochHook
from ..simnet.cluster import Cluster
from ..simnet.faults import FaultTimeline
from .checkpoint import CheckpointStore, DriverCheckpoint
from .guard import GuardedPolicy
from .mitigation import MITIGATION_KINDS, MitigationAction, MitigationEngine
from .monitor import HealthMonitor

__all__ = ["GuardHook", "FaultTimelineHook", "MitigationHook", "CheckpointHook"]


def _evict(
    ctx: EngineContext, cluster: Cluster, idxs: List[int]
) -> Tuple[Cluster, np.ndarray]:
    """Remove the nodes at positions ``idxs`` of ``ctx.alive`` from
    ``cluster``: they move to ``ctx.evicted_nodes`` and the collector
    takes the survivors' shape.  Returns the shrunk cluster and the
    old-to-new rank map."""
    rank_map = cluster.eviction_rank_map(idxs)
    for n in [ctx.alive[j] for j in idxs]:
        ctx.alive.remove(n)
        ctx.evicted_nodes.append(n)
    ctx.n_evictions += len(idxs)
    cluster = cluster.evict_nodes(idxs)
    ctx.collector.reconfigure(cluster.n_ranks, cluster.ranks_per_node)
    return cluster, rank_map


def _charge(ctx: EngineContext, engine: MitigationEngine, action: MitigationAction) -> None:
    """Log a priced action (engine log and collector mitigation row) and
    add its cost to the run's wall clock."""
    engine.record(action)
    ctx.collector.record_mitigation(
        action.step, action.epoch, action.kind_code, len(action.nodes), action.cost_s
    )
    ctx.wall += action.cost_s
    ctx.mitigation_s += action.cost_s


class GuardHook(EpochHook):
    """Policy-fallback accounting + the deterministic placement charge.

    Snapshots the policy's fallback/backoff counters around each
    redistribution, logs any fallback as a mitigation row, drains the
    :class:`GuardedPolicy` event buffer, and replaces the measured
    placement wall-clock with the modeled
    ``resilience.placement_charge_s`` (+ simulated backoff) so the lb
    charge is seed-deterministic.
    """

    def __init__(self, resilience) -> None:
        self.resilience = resilience
        self._fallbacks_before = 0
        self._backoff_before = 0.0

    def before_redistribute(self, ctx: EngineContext, epoch) -> None:
        self._fallbacks_before = getattr(ctx.policy, "fallback_count", 0)
        self._backoff_before = getattr(ctx.policy, "simulated_backoff_s", 0.0)

    def after_redistribute(self, ctx: EngineContext, epoch) -> None:
        backoff_s = (
            getattr(ctx.policy, "simulated_backoff_s", 0.0) - self._backoff_before
        )
        fallbacks = (
            getattr(ctx.policy, "fallback_count", 0) - self._fallbacks_before
        )
        if fallbacks:
            ctx.n_policy_fallbacks += fallbacks
            ctx.collector.record_mitigation(
                epoch.step_start, epoch.index,
                MITIGATION_KINDS["policy_fallback"], 0, backoff_s,
            )
        if isinstance(ctx.policy, GuardedPolicy):
            ctx.policy.drain_events()
        ctx.placement_charge = self.resilience.placement_charge_s + backoff_s


class FaultTimelineHook(EpochHook):
    """Fires the fault timeline: throttle onsets, fabric-degradation
    windows (via the per-epoch fault model), and fail-stop crashes.

    A crash posts a :meth:`~EngineContext.request_restore` whose handler
    either restores the last checkpoint on the survivors or rebuilds the
    job from scratch (the unmitigated arm), then evicts the dead node
    and rewinds the cursor to the replay epoch.
    """

    def __init__(
        self,
        timeline: FaultTimeline,
        resilience,
        original_cluster: Cluster,
        base_cluster: Cluster,
        monitor: HealthMonitor,
        engine: MitigationEngine,
        store: Optional[CheckpointStore] = None,
    ) -> None:
        self.timeline = timeline
        self.resilience = resilience
        self.original_cluster = original_cluster  #: machine/topology source
        self.base_cluster = base_cluster          #: static base faults applied
        self.monitor = monitor
        self.engine = engine
        self.store = store
        self.restores_done = 0

    def on_epoch_start(self, ctx: EngineContext, epoch) -> None:
        lo = epoch.step_start
        hi = lo + epoch.n_steps
        cur = ctx.cluster
        for ev in self.timeline.throttle_onsets_in(lo, hi):
            mapped = [ctx.alive.index(n) for n in ev.nodes if n in ctx.alive]
            if mapped:
                cur = cur.throttle_nodes(mapped, factor=ev.factor)
                ctx.request_reconfigure(cluster=cur)
        ctx.request_reconfigure(faults=self.timeline.fault_model_at(lo))

    def on_epoch_end(self, ctx: EngineContext, epoch) -> None:
        lo = epoch.step_start
        hi = lo + epoch.n_steps
        crashes = [c for c in self.timeline.crashes_in(lo, hi) if c.node in ctx.alive]
        if not crashes:
            return
        self.restores_done += 1
        if self.restores_done > self.resilience.max_restores:
            raise RuntimeError(
                f"run lost: {self.restores_done} crash recoveries exceed "
                f"max_restores={self.resilience.max_restores}"
            )
        dead = sorted(c.node for c in crashes)
        crash_step = min(c.step for c in crashes)

        def handler(c: EngineContext, _epoch=epoch, _dead=dead, _step=crash_step):
            self._recover(c, _epoch, _dead, _step)

        ctx.request_restore(handler)

    # ------------------------------------------------------------------ #

    def _recover(self, ctx: EngineContext, epoch, dead: List[int], crash_step: int) -> None:
        resilience = self.resilience
        config = ctx.config
        ckpt = (
            self.store.load()
            if (resilience.checkpointing and self.store)
            else None
        )
        if ckpt is not None:
            # Restore the last checkpoint: the job relaunches on the
            # survivors and replays from the checkpointed epoch.
            recovery_cost = resilience.restore_s
            ctx.collector.restore_tables(ckpt.tables)
            ctx.tracker.load_state(ckpt.tracker_estimates)
            ctx.rng.bit_generator.state = ckpt.driver_rng_state
            ctx.model.set_rng_state(ckpt.model_rng_state)
            ctx.alive = alive = list(ckpt.alive_nodes)
            orig = self.original_cluster
            cur = Cluster(
                n_ranks=ckpt.n_ranks,
                machine=orig.machine,
                node_speed_factor=ckpt.node_speed_factor.copy(),
                nodes_per_switch=orig.nodes_per_switch,
                # alive_nodes index the original numbering, so the
                # survivors' hardware classes slice straight out.
                node_speed=(
                    None if orig.node_speed is None else orig.node_speed[alive]
                ),
                node_nic_gbps=(
                    None
                    if orig.node_nic_gbps is None
                    else orig.node_nic_gbps[alive]
                ),
            )
            if ctx.tuning.drain_queue != ckpt.drain_queue:
                ctx.tuning = dataclasses.replace(
                    ctx.tuning, drain_queue=ckpt.drain_queue
                )
            ctx.total_steps = ckpt.total_steps
            ctx.lb_invocations = ckpt.lb_invocations
            ctx.placement_max = max(ctx.placement_max, ckpt.placement_s_max)
            ctx.msg_acc = ckpt.msg_acc.copy()
            i_next = ckpt.epoch_index
            restored_assignment = ckpt.assignment
        else:
            # No checkpoint: full resubmission from step 0.
            recovery_cost = resilience.relaunch_s
            fresh = fresh_run_state(self.base_cluster, config, self.timeline.base)
            unknown = fresh.keys() - {f.name for f in dataclasses.fields(ctx)}
            if unknown:
                raise AttributeError(f"not EngineContext fields: {unknown}")
            for name, value in fresh.items():
                setattr(ctx, name, value)
            cur = ctx.cluster
            i_next = 0
            restored_assignment = None

        # The dead node leaves the job either way.
        dead_idx = [ctx.alive.index(n) for n in dead if n in ctx.alive]
        lost_blocks = 0
        if dead_idx:
            cur, rank_map = _evict(ctx, cur, dead_idx)
            if restored_assignment is not None and i_next > 0:
                ctx.prev_assignment = remap_assignment(restored_assignment, rank_map)
                ctx.prev_keys = ctx.epochs[i_next - 1].keys
                lost_blocks = int((ctx.prev_assignment < 0).sum())
            else:
                ctx.prev_assignment = None
                ctx.prev_keys = None
            ctx.model.reconfigure(cluster=cur)
            _charge(ctx, self.engine, MitigationAction(
                "evict", step=crash_step, epoch=epoch.index, nodes=tuple(dead),
                cost_s=self.engine.eviction_cost_s(lost_blocks, config.fabric),
                detail="fail-stop crash",
            ))
        elif restored_assignment is not None and i_next > 0:
            ctx.prev_assignment = restored_assignment
            ctx.prev_keys = ctx.epochs[i_next - 1].keys
        else:
            ctx.prev_assignment = None
            ctx.prev_keys = None
        ctx.cluster = cur

        _charge(ctx, self.engine, MitigationAction(
            "restore", step=crash_step, epoch=epoch.index, nodes=tuple(dead),
            cost_s=recovery_cost,
            detail="checkpoint restore" if ckpt is not None
            else "from-scratch resubmission",
        ))
        ctx.n_restores += 1
        self.monitor.notify_reconfigured(ctx.collector)
        ctx.cursor = i_next


class MitigationHook(EpochHook):
    """Epoch-boundary health monitoring + priced mitigation actions.

    Runs the windowed detectors over the collector's recent records; a
    flagged assessment turns into drain-queue enablement and/or node
    eviction, posted through the control channel so the checkpoint hook
    (later in the stack) captures the post-mitigation world.
    """

    def __init__(self, resilience, monitor: HealthMonitor, engine: MitigationEngine) -> None:
        self.resilience = resilience
        self.monitor = monitor
        self.engine = engine

    def on_epoch_end(self, ctx: EngineContext, epoch) -> None:
        hi = epoch.step_start + epoch.n_steps
        assessment = self.monitor.observe(ctx.collector, epoch.index)
        if assessment is None or not assessment.any:
            return
        assignment = ctx.prev_assignment  # this epoch's assignment
        node_of_block = np.asarray(assignment) // ctx.cluster.ranks_per_node
        blocks_per_node = {
            int(n): int(c)
            for n, c in zip(*np.unique(node_of_block, return_counts=True))
        }
        actions = self.engine.plan(
            assessment,
            step=hi - 1,
            epoch=epoch.index,
            drain_enabled=ctx.tuning.drain_queue,
            n_nodes_alive=ctx.cluster.n_nodes,
            blocks_per_node=blocks_per_node,
            fabric=ctx.config.fabric,
        )
        cur = ctx.cluster
        tuning = ctx.tuning
        for act in actions:
            if act.kind == "drain_queue":
                tuning = dataclasses.replace(tuning, drain_queue=True)
                ctx.request_reconfigure(tuning=tuning)
                ctx.n_drain_enables += 1
            elif act.kind == "evict":
                cur, rank_map = _evict(ctx, cur, list(act.nodes))
                ctx.prev_assignment = remap_assignment(ctx.prev_assignment, rank_map)
                ctx.request_reconfigure(cluster=cur)
                self.monitor.notify_reconfigured(ctx.collector)
            _charge(ctx, self.engine, act)


class CheckpointHook(EpochHook):
    """Periodic driver-state checkpointing.

    Saves an initial checkpoint at run start (a crash before the first
    interval restores to the job start instead of paying a full
    resubmission), then one every ``checkpoint_interval_epochs``.
    """

    def __init__(self, resilience, store: CheckpointStore, engine: MitigationEngine) -> None:
        self.resilience = resilience
        self.store = store
        self.engine = engine

    def on_run_start(self, ctx: EngineContext) -> None:
        self._save(ctx, 0, 0, 0)

    def on_epoch_end(self, ctx: EngineContext, epoch) -> None:
        i = ctx.cursor
        hi = epoch.step_start + epoch.n_steps
        if (
            (i + 1) % self.resilience.checkpoint_interval_epochs == 0
            and i + 1 < len(ctx.epochs)
        ):
            self._save(ctx, i + 1, hi - 1, epoch.index)

    def _save(self, ctx: EngineContext, next_epoch: int, at_step: int, epoch_id: int) -> None:
        # The checkpoint's tables include its own mitigation row.
        _charge(ctx, self.engine, MitigationAction(
            "checkpoint", step=at_step, epoch=epoch_id,
            cost_s=self.resilience.checkpoint_write_s,
        ))
        ckpt = DriverCheckpoint(
            epoch_index=next_epoch,
            total_steps=ctx.total_steps,
            lb_invocations=ctx.lb_invocations,
            placement_s_max=ctx.placement_max,
            msg_acc=ctx.msg_acc.copy(),
            assignment=None if ctx.prev_assignment is None
            else ctx.prev_assignment.copy(),
            alive_nodes=tuple(ctx.alive),
            node_speed_factor=ctx.cluster.node_speed_factor.copy(),
            n_ranks=ctx.cluster.n_ranks,
            drain_queue=ctx.tuning.drain_queue,
            driver_rng_state=ctx.rng.bit_generator.state,
            model_rng_state=ctx.model.rng_state(),
            tracker_estimates=ctx.tracker.state(),
            tables=ctx.collector.snapshot_tables(),
        )
        self.store.save(ckpt)
        ctx.n_checkpoints += 1
