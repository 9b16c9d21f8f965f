"""The canonical BSP epoch loop, with lifecycle hooks.

Every experiment arm in this repo — the plain policy sweep, the passive
health-monitored run, the full detect → mitigate → checkpoint → recover
resilience loop — executes the *same* per-epoch sequence:

1. remesh carry: project the previous assignment onto the new block set;
2. telemetry-driven cost measurement (with measurement noise) feeding
   the placement policy, or all-ones for the baseline arm;
3. redistribution (placement + migration charge);
4. the epoch's timesteps on the vectorized BSP model, with sampled
   steps standing for the epoch's mean.

:class:`EpochEngine` owns that sequence once.  Everything that used to
be a forked copy of the loop — telemetry recording, fault timelines,
online mitigation, checkpoint/restart, phase profiling — is a
:class:`~repro.engine.hooks.EpochHook` composed onto the engine.  The
legacy entry points :func:`repro.amr.driver.run_trajectory` and
:func:`repro.resilience.driver.run_resilient_trajectory` are thin
wrappers that assemble hook stacks; both are bit-identical to their
pre-engine implementations (asserted by the golden parity tests).

Hook dispatch rules (the contract the ordering tests pin down):

* hooks fire in registration order at every lifecycle point;
* the control queue drains after *each* hook returns, so a reconfigure
  posted by hook N is visible to hook N+1;
* a pending restore short-circuits the remaining hooks of the current
  event, discards queued reconfigures, abandons the epoch, and resumes
  the loop at the cursor the restore handler set.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from ..amr.block import BlockCostTracker
from ..amr.redistribution import (
    carry_assignment,
    commit_redistribution,
    prepare_redistribution,
)
from ..core.metrics import message_stats
from ..core.policy import PlacementPolicy
from ..perf.cache import PatternCacheStats, shared_cache_handle
from ..simnet.cluster import Cluster
from ..simnet.faults import FaultModel
from ..simnet.runtime import BSPModel, ExchangePattern
from ..telemetry.collector import TelemetryCollector
from .context import EngineContext
from .hooks import EpochHook
from .types import DriverConfig, RunSummary

__all__ = ["EpochEngine"]


class EpochEngine:
    """Runs one policy over a workload trajectory under a hook stack.

    Parameters
    ----------
    policy, epochs, cluster, config:
        As for the legacy drivers.  ``epochs`` is materialized into a
        list so restore handlers can replay from an earlier index.
    hooks:
        Lifecycle hooks, fired in the given order at every event.
    faults:
        Fault model for the BSP step-noise path; defaults to
        ``config.faults``.  The resilient wrapper passes the timeline's
        static base here (and pre-applies it to ``cluster``).
    """

    def __init__(
        self,
        policy: PlacementPolicy,
        epochs: Iterable,
        cluster: Cluster,
        config: DriverConfig = DriverConfig(),
        hooks: Sequence[EpochHook] = (),
        faults: Optional[FaultModel] = None,
    ) -> None:
        faults = config.faults if faults is None else faults
        model = BSPModel(
            cluster,
            fabric=config.fabric,
            tuning=config.tuning,
            faults=faults,
            seed=config.seed,
            exchange_rounds=config.exchange_rounds,
        )
        self.hooks = list(hooks)
        if config.cancel_path or config.deadline_ts is not None:
            from ..perf.cancel import maybe_token
            from .hooks import CancellationHook

            # Appended last so an epoch's own hooks (telemetry spool,
            # checkpoint) complete before a cancel abandons the run.
            self.hooks.append(CancellationHook(
                maybe_token(config.cancel_path),
                deadline_ts=config.deadline_ts,
            ))
        collector = TelemetryCollector(cluster.n_ranks, cluster.ranks_per_node)
        if cluster.is_heterogeneous:
            collector.set_hardware(cluster.rank_capacity(), cluster.rank_nic())
        self.ctx = EngineContext(
            policy=policy,
            config=config,
            epochs=list(epochs),
            cluster=cluster,
            tuning=config.tuning,
            model=model,
            collector=collector,
            tracker=BlockCostTracker(),
            rng=np.random.default_rng(config.seed),
            alive=list(range(cluster.n_nodes)),
            pattern_cache=(
                shared_cache_handle() if config.pattern_cache_shared else None
            ),
        )

    # ------------------------------------------------------------------ #
    # hook dispatch + control channel
    # ------------------------------------------------------------------ #

    def _drain_control(self) -> bool:
        """Apply queued control requests; True iff a restore ran."""
        ctx = self.ctx
        if ctx._restore is not None:
            handler, ctx._restore = ctx._restore, None
            ctx._reconfigures.clear()      # restore wins over reconfigure
            handler(ctx)
            return True
        while ctx._reconfigures:
            req = ctx._reconfigures.pop(0)
            if "cluster" in req:
                ctx.cluster = req["cluster"]
            if "tuning" in req:
                ctx.tuning = req["tuning"]
            ctx.model.reconfigure(**req)
        return False

    def _dispatch(self, event: str, *args) -> bool:
        """Fire ``event`` on every hook in order; True iff restored.

        The control queue drains after each hook so later hooks see the
        reconfigured world; a restore short-circuits the rest.
        """
        for hook in self.hooks:
            method = getattr(hook, event, None)
            if method is None:
                continue
            method(self.ctx, *args)
            if self._drain_control():
                return True
        return False

    # ------------------------------------------------------------------ #
    # the canonical loop
    # ------------------------------------------------------------------ #

    def run(self) -> RunSummary:
        """Execute the trajectory; returns the run summary."""
        ctx = self.ctx
        config = ctx.config
        self._dispatch("on_run_start")
        while ctx.cursor < len(ctx.epochs):
            epoch = ctx.epochs[ctx.cursor]
            if self._dispatch("on_epoch_start", epoch):
                continue

            # --- telemetry-driven cost measurement ----------------------
            measured = epoch.base_costs * ctx.rng.lognormal(
                0.0,
                config.cost_measurement_sigma,
                size=epoch.base_costs.shape[0],
            )
            ctx.tracker.observe_all(epoch.blocks, measured)
            if config.use_measured_costs:
                ctx.policy_costs = ctx.tracker.estimates(epoch.blocks)
            else:
                ctx.policy_costs = np.ones(len(epoch.blocks), dtype=np.float64)

            # --- redistribution on the current (surviving) cluster ------
            if ctx.prev_blocks is not None:
                ctx.carried = carry_assignment(
                    ctx.prev_blocks, ctx.prev_assignment, epoch.blocks
                )
            else:
                ctx.carried = None
            if self._dispatch("before_redistribute", epoch):
                continue
            # Two-phase redistribution: prepare computes placement +
            # migration plan, commit accepts it.  An after_redistribute
            # hook may replace ctx.outcome — e.g. the TransportHook
            # aborts to the stale carried placement when migration
            # exhausts its transport retry budget — so the engine
            # re-reads ctx.outcome after dispatch.
            ctx.plan = prepare_redistribution(
                ctx.policy,
                ctx.policy_costs,
                ctx.cluster.n_ranks,
                ctx.carried,
                config.fabric,
                ctx=(
                    ctx.cluster.placement_context()
                    if ctx.cluster.is_heterogeneous
                    else None
                ),
            )
            outcome = commit_redistribution(ctx.plan)
            ctx.outcome = outcome
            ctx.placement_max = max(ctx.placement_max, outcome.placement_s)
            # Deterministic lb charge when configured; hooks (e.g. the
            # resilience guard) may still override it.
            ctx.placement_charge = config.placement_charge_s
            if self._dispatch("after_redistribute", epoch):
                continue
            outcome = ctx.outcome
            assignment = outcome.result.assignment
            placement_term = (
                outcome.placement_s
                if ctx.placement_charge is None
                else ctx.placement_charge
            )
            lb_per_rank = outcome.migration_s + placement_term
            if ctx.carried is not None:
                ctx.lb_invocations += 1
                lb_per_rank += config.redistribution_overhead_s
            ctx.lb_per_rank = lb_per_rank

            # --- simulate the epoch's steps -----------------------------
            # Service runs look the pattern up in the shared store; hits
            # are bit-identical to the direct computation.
            if ctx.pattern_cache is not None:
                ctx.pattern, ms = ctx.pattern_cache.lookup(
                    epoch.graph, assignment, epoch.base_costs, ctx.cluster,
                    config.fabric,
                )
            else:
                ctx.pattern = ExchangePattern.from_mesh(
                    epoch.graph, assignment, epoch.base_costs, ctx.cluster,
                    config.fabric,
                )
                ms = message_stats(
                    epoch.graph, assignment, ctx.cluster.ranks_per_node
                )
            ctx.msg_acc += (
                np.array([ms.intra_rank, ms.local, ms.remote]) * epoch.n_steps
            )
            k = min(epoch.n_steps, config.samples_per_epoch)
            ctx.sample_count = k
            ctx.step_weight = epoch.n_steps / k
            epoch_wall = 0.0
            restored = False
            for s in range(k):
                phases = ctx.model.step(ctx.pattern)
                epoch_wall += phases.step_time
                if self._dispatch("on_step", epoch, s, phases):
                    restored = True
                    break
            if restored:
                continue
            ctx.epoch_wall = epoch_wall / k * epoch.n_steps + lb_per_rank
            ctx.wall += ctx.epoch_wall
            ctx.total_steps += epoch.n_steps
            ctx.final_blocks = len(epoch.blocks)
            ctx.prev_blocks = epoch.blocks
            ctx.prev_assignment = assignment

            # --- epoch boundary: telemetry, crash, mitigation, ckpt -----
            if self._dispatch("on_epoch_end", epoch):
                continue
            ctx.cursor += 1

        summary = self._summary()
        self._dispatch("on_run_end", summary)
        return summary

    # ------------------------------------------------------------------ #

    def _summary(self) -> RunSummary:
        ctx = self.ctx
        phases = ctx.collector.phase_totals()
        msg_mean = ctx.msg_acc / max(ctx.total_steps, 1)
        cache = (
            ctx.pattern_cache.stats if ctx.pattern_cache else PatternCacheStats()
        )
        return RunSummary(
            policy=ctx.policy.name,
            n_ranks=ctx.cluster.n_ranks,
            total_steps=ctx.total_steps,
            n_epochs=len(ctx.epochs),
            lb_invocations=ctx.lb_invocations,
            wall_s=ctx.wall,
            phase_rank_seconds=phases,
            final_blocks=ctx.final_blocks,
            placement_s_max=ctx.placement_max,
            collector=ctx.collector,
            msg_intra_rank=float(msg_mean[0]),
            msg_local=float(msg_mean[1]),
            msg_remote=float(msg_mean[2]),
            n_checkpoints=ctx.n_checkpoints,
            n_restores=ctx.n_restores,
            n_evictions=ctx.n_evictions,
            n_drain_enables=ctx.n_drain_enables,
            n_policy_fallbacks=ctx.n_policy_fallbacks,
            mitigation_s=ctx.mitigation_s,
            evicted_nodes=tuple(ctx.evicted_nodes),
            n_retransmits=ctx.n_retransmits,
            n_transport_drops=ctx.n_transport_drops,
            n_dup_suppressed=ctx.n_dup_suppressed,
            n_transport_reorders=ctx.n_transport_reorders,
            n_rollbacks=ctx.n_rollbacks,
            n_degraded_epochs=ctx.n_degraded_epochs,
            transport_stall_s=ctx.transport_stall_s,
            pattern_cache_hits=cache.hits,
            pattern_cache_misses=cache.misses,
            pattern_cache_evictions=cache.evictions,
        )
