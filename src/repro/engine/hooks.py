"""Lifecycle hooks for :class:`~repro.engine.EpochEngine`.

This module holds the hook protocol plus the hooks with no resilience
dependencies: telemetry recording, passive health monitoring, and the
per-phase profiler.  The fault/mitigation/checkpoint hooks live in
:mod:`repro.resilience.hooks` (re-exported from :mod:`repro.engine`).

Lifecycle, in engine dispatch order::

    on_run_start(ctx)
    per epoch:
        on_epoch_start(ctx, epoch)         # before cost measurement
        before_redistribute(ctx, epoch)    # costs + carry ready
        after_redistribute(ctx, epoch)     # ctx.outcome ready
        on_step(ctx, epoch, s, phases)     # per sampled step
        on_epoch_end(ctx, epoch)           # accumulators rolled forward
    on_run_end(ctx, summary)

Any hook may post ``ctx.request_reconfigure`` /
``ctx.request_restore``; see :mod:`repro.engine.context` for the drain
semantics.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from ..telemetry.columnar import ColumnTable
from ..telemetry.dataset import TelemetryDataset
from .context import EngineContext
from .types import RunSummary

__all__ = [
    "CancellationHook",
    "EpochHook",
    "TelemetryHook",
    "TelemetrySpoolHook",
    "PassiveMonitorHook",
    "PhaseProfilerHook",
    "PROFILE_PHASES",
]


class EpochHook:
    """Base lifecycle hook: every event is a no-op.

    Subclass and override the events you care about.  Hooks are fired
    in registration order at every event; keep them side-effect-free
    with respect to the engine's RNG streams unless bit-reproducibility
    is explicitly part of your hook's contract.
    """

    def on_run_start(self, ctx: EngineContext) -> None:
        pass

    def on_epoch_start(self, ctx: EngineContext, epoch) -> None:
        pass

    def before_redistribute(self, ctx: EngineContext, epoch) -> None:
        pass

    def after_redistribute(self, ctx: EngineContext, epoch) -> None:
        pass

    def on_step(self, ctx: EngineContext, epoch, s: int, phases) -> None:
        pass

    def on_epoch_end(self, ctx: EngineContext, epoch) -> None:
        pass

    def on_run_end(self, ctx: EngineContext, summary: RunSummary) -> None:
        pass


class TelemetryHook(EpochHook):
    """Records sampled-step and epoch rows into ``ctx.collector``.

    Reproduces the legacy drivers' recording exactly: the epoch's lb
    charge is folded into the first sampled step (de-weighted so the
    weighted total stays correct), and each sampled row carries the
    real-steps-per-sample weight.
    """

    def __init__(self) -> None:
        self._per_rank_blocks: Optional[np.ndarray] = None

    def on_step(self, ctx: EngineContext, epoch, s: int, phases) -> None:
        assignment = ctx.outcome.result.assignment
        if s == 0:
            self._per_rank_blocks = np.bincount(
                assignment, minlength=ctx.cluster.n_ranks
            )
        lb_term = ctx.lb_per_rank if s == 0 else 0.0
        ctx.collector.record_step(
            step=epoch.step_start + s,
            epoch=epoch.index,
            compute_s=phases.compute,
            comm_s=phases.comm,
            sync_s=phases.sync,
            lb_s=np.full(ctx.cluster.n_ranks, lb_term / max(ctx.step_weight, 1.0))
            if lb_term
            else 0.0,
            n_blocks=self._per_rank_blocks,
            load=ctx.pattern.loads,
            msgs_local=ctx.pattern.in_local.astype(np.int64),
            msgs_remote=ctx.pattern.in_remote.astype(np.int64),
            weight=ctx.step_weight,
        )

    def on_epoch_end(self, ctx: EngineContext, epoch) -> None:
        outcome = ctx.outcome
        ctx.collector.record_epoch(
            epoch=epoch.index,
            step_start=epoch.step_start,
            n_steps=epoch.n_steps,
            n_blocks=len(epoch.keys),
            n_refined=epoch.n_refined,
            n_coarsened=epoch.n_coarsened,
            placement_s=outcome.placement_s,
            migration_blocks=outcome.migrated_blocks,
            epoch_wall_s=ctx.epoch_wall,
        )


class TelemetrySpoolHook(EpochHook):
    """Incrementally flushes step telemetry to an on-disk dataset.

    At each epoch boundary (every ``every_epochs``-th, default every
    one) the collector's rows recorded since the last flush are written
    as a new :class:`~repro.telemetry.dataset.TelemetryDataset`
    partition, so a long run is queryable on disk *mid-run* — point
    ``repro query`` or ``Query(TelemetryDataset.open(...))`` at the
    directory while the simulation is still going.  Each partition is
    one epoch window and carries its own zone maps, so planned queries
    over step/epoch ranges prune untouched epochs without reading them.

    Place it after :class:`TelemetryHook` in the hook stack so the
    epoch's rows exist before the flush.
    """

    def __init__(
        self,
        dataset: Union[TelemetryDataset, str, Path],
        every_epochs: int = 1,
    ) -> None:
        if every_epochs < 1:
            raise ValueError("every_epochs must be >= 1")
        if not isinstance(dataset, TelemetryDataset):
            dataset = TelemetryDataset.create(dataset)
        self.dataset = dataset
        self.every_epochs = every_epochs
        self._since_flush = 0

    def on_epoch_end(self, ctx: EngineContext, epoch) -> None:
        self._since_flush += 1
        if self._since_flush >= self.every_epochs:
            if ctx.collector.flush_partition(
                self.dataset, label=f"epoch-{epoch.index}"
            ):
                self._since_flush = 0

    def on_run_end(self, ctx: EngineContext, summary: RunSummary) -> None:
        ctx.collector.flush_partition(self.dataset, label="final")


class PassiveMonitorHook(EpochHook):
    """Feeds the health monitor at epoch boundaries without acting on it.

    This is the detection-only arm: :class:`repro.resilience.hooks.
    MitigationHook` is the acting variant.
    """

    def __init__(self, monitor) -> None:
        self.monitor = monitor

    def on_epoch_end(self, ctx: EngineContext, epoch) -> None:
        self.monitor.observe(ctx.collector, epoch.index)


#: Phase codes of the profiler table (telemetry dimensions are coded as
#: ints, like every other column).
PROFILE_PHASES: Dict[str, int] = {"measure": 1, "redistribute": 2, "steps": 3}

_PHASE_NAMES = {v: k for k, v in PROFILE_PHASES.items()}


class PhaseProfilerHook(EpochHook):
    """Per-phase host wall-clock + simulated time, per epoch.

    For every *completed* epoch (abandoned crash replays are excluded)
    the hook records three rows — ``measure`` (cost measurement +
    remesh carry), ``redistribute`` (placement + migration), ``steps``
    (the sampled BSP steps) — each with the host seconds the engine
    spent in that span and the simulated seconds it charged.  Place it
    last in the stack so host timings include the other hooks' work.
    """

    def __init__(self) -> None:
        self._epoch: list = []
        self._phase: list = []
        self._host_s: list = []
        self._sim_s: list = []
        self._t0: Optional[float] = None
        self._t1: Optional[float] = None
        self._t2: Optional[float] = None
        self.run_host_s: float = 0.0
        self._t_run: Optional[float] = None

    def on_run_start(self, ctx: EngineContext) -> None:
        self._t_run = time.perf_counter()

    def on_epoch_start(self, ctx: EngineContext, epoch) -> None:
        self._t0 = time.perf_counter()
        self._t1 = self._t2 = None

    def before_redistribute(self, ctx: EngineContext, epoch) -> None:
        self._t1 = time.perf_counter()

    def after_redistribute(self, ctx: EngineContext, epoch) -> None:
        self._t2 = time.perf_counter()

    def on_epoch_end(self, ctx: EngineContext, epoch) -> None:
        t3 = time.perf_counter()
        if self._t0 is None or self._t1 is None or self._t2 is None:
            return  # epoch was abandoned mid-flight by a restore
        lb = ctx.lb_per_rank
        rows = (
            (PROFILE_PHASES["measure"], self._t1 - self._t0, 0.0),
            (PROFILE_PHASES["redistribute"], self._t2 - self._t1, lb),
            (PROFILE_PHASES["steps"], t3 - self._t2, ctx.epoch_wall - lb),
        )
        for phase, host_s, sim_s in rows:
            self._epoch.append(epoch.index)
            self._phase.append(phase)
            self._host_s.append(host_s)
            self._sim_s.append(sim_s)

    def on_run_end(self, ctx: EngineContext, summary: RunSummary) -> None:
        if self._t_run is not None:
            self.run_host_s = time.perf_counter() - self._t_run

    # ------------------------------------------------------------------ #

    def table(self) -> ColumnTable:
        """The profile as a first-class telemetry table."""
        return ColumnTable(
            {
                "epoch": np.asarray(self._epoch, dtype=np.int64),
                "phase": np.asarray(self._phase, dtype=np.int64),
                "host_s": np.asarray(self._host_s, dtype=np.float64),
                "sim_s": np.asarray(self._sim_s, dtype=np.float64),
            }
        )

    def report(self) -> str:
        """Human-readable per-phase totals (the ``--profile`` output)."""
        t = self.table()
        lines = [
            "phase breakdown (driver host time vs simulated charge)",
            f"{'phase':<14} {'host_s':>10} {'host_%':>8} {'sim_s':>12}",
        ]
        host_total = float(t["host_s"].sum()) or 1.0
        for code in sorted(_PHASE_NAMES):
            mask = t["phase"] == code
            host = float(t["host_s"][mask].sum())
            sim = float(t["sim_s"][mask].sum())
            lines.append(
                f"{_PHASE_NAMES[code]:<14} {host:>10.4f} "
                f"{host / host_total:>8.1%} {sim:>12.2f}"
            )
        lines.append(
            f"{'total':<14} {float(t['host_s'].sum()):>10.4f} "
            f"{'':>8} {float(t['sim_s'].sum()):>12.2f}"
        )
        if self.run_host_s:
            lines.append(f"engine host total: {self.run_host_s:.4f}s")
        return "\n".join(lines)


class CancellationHook(EpochHook):
    """Cooperative cancellation + deadline clock at epoch boundaries.

    Polls a :class:`~repro.perf.cancel.CancelToken` (a cross-process
    flag file) before the first epoch and after every completed epoch,
    raising :class:`~repro.perf.cancel.JobCancelled` when it is set —
    i.e. the run stops within one epoch of the request, at a state
    boundary where all accumulators are consistent.  The engine attaches
    this hook automatically when the config of the sweep running it
    (:data:`~repro.perf.supervisor.SWEEP_CONFIG`) sets ``cancel_path``
    or ``deadline_ts``, so a cancel reaches runs inside pool worker
    processes, and every experiment kind, alike.  ``deadline_ts`` is an
    absolute wall-clock bound checked on the same cadence, raising
    :class:`~repro.perf.cancel.DeadlineExceeded` (a ``JobCancelled``
    subclass: same resumable-journal semantics, distinguishable by
    type).  Fires last in the stack: the epoch's own hooks (journal,
    telemetry spool, checkpoints) have already run when it raises.
    """

    def __init__(self, token, deadline_ts: Optional[float] = None) -> None:
        self.token = token
        self.deadline_ts = deadline_ts

    def _check(self, ctx: EngineContext) -> None:
        if self.deadline_ts is not None and time.time() > self.deadline_ts:
            from ..perf.cancel import DeadlineExceeded

            raise DeadlineExceeded(
                f"run exceeded its deadline at epoch "
                f"{ctx.cursor}/{len(ctx.epochs)}"
            )
        if self.token is not None and self.token.is_set():
            from ..perf.cancel import JobCancelled

            raise JobCancelled(
                f"run cancelled at epoch {ctx.cursor}/{len(ctx.epochs)} "
                f"(cancel flag: {self.token.path})"
            )

    def on_run_start(self, ctx: EngineContext) -> None:
        self._check(ctx)

    def on_epoch_end(self, ctx: EngineContext, epoch) -> None:
        self._check(ctx)
