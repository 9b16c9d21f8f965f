"""The full AMR pipeline in one object: solve → measure → place.

:class:`Simulation` is the Parthenon-shaped front door of this library:
it advances a real block solver, adapts the mesh on the solver's own
refinement tags, tracks *measured* per-block kernel costs, consults a
cost/benefit trigger, and redistributes blocks with a placement policy —
while collecting the same rank-step telemetry the performance study
uses.  Blocks execute serially in-process, but every bookkeeping step
(block→rank ownership, migration counts, per-rank phase attribution)
mirrors a distributed run, so the resulting telemetry feeds
:func:`repro.telemetry.diagnose` and the placement policies directly.

This is the integration point a downstream user adopts; the pieces
remain usable separately.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Protocol, Tuple

import numpy as np

from ..core.policy import PlacementPolicy
from ..mesh.geometry import BlockIndex
from ..mesh.mesh import AmrMesh
from ..mesh.sfc import block_keys
from ..telemetry.collector import TelemetryCollector
from .block import BlockCostTracker
from .redistribution import carry_assignment
from .trigger import ImbalanceTrigger

__all__ = ["BlockSolver", "Simulation", "SimulationResult"]


class BlockSolver(Protocol):
    """What :class:`Simulation` needs from a solver.

    Satisfied by :class:`~repro.amr.hydro.EulerSolver2D`; any solver
    exposing the same surface plugs in.
    """

    mesh: AmrMesh
    time: float
    kernel_times: Dict[BlockIndex, float]

    def step(self, dt: float | None = None) -> float: ...
    def adapt(self, threshold: float = ..., coarsen_below: float = ...) -> Tuple[int, int]: ...


@dataclasses.dataclass
class SimulationResult:
    """Outcome of a :meth:`Simulation.run`."""

    n_steps: int
    final_time: float
    n_blocks: int
    redistributions: int
    trigger_skips: int
    migrated_blocks: int
    collector: TelemetryCollector

    def summary(self) -> str:
        return (
            f"{self.n_steps} steps to t={self.final_time:.4f}; "
            f"{self.n_blocks} blocks; "
            f"{self.redistributions} redistributions "
            f"({self.trigger_skips} skipped by trigger, "
            f"{self.migrated_blocks} blocks migrated)"
        )


class Simulation:
    """Driver binding a solver, a placement policy, and telemetry.

    Parameters
    ----------
    solver:
        A block solver (e.g. ``EulerSolver2D``) already initialized.
    policy:
        Placement policy fed with *measured* kernel costs.
    n_ranks:
        Simulated rank count for ownership/telemetry bookkeeping.
    adapt_interval:
        Steps between refinement checks (the paper's cadence knob).
    trigger:
        Optional cost/benefit trigger consulted on *cost-drift* epochs
        (mesh-change epochs always redistribute).  ``None`` = always
        redistribute at every check, like the paper's codes.
    ranks_per_node:
        Topology for the telemetry's node column.
    """

    def __init__(
        self,
        solver: BlockSolver,
        policy: PlacementPolicy,
        n_ranks: int,
        adapt_interval: int = 5,
        trigger: Optional[ImbalanceTrigger] = None,
        ranks_per_node: int = 16,
        adapt_threshold: float = 0.15,
        coarsen_below: float = 0.03,
    ) -> None:
        if n_ranks < 1:
            raise ValueError("n_ranks must be >= 1")
        if adapt_interval < 1:
            raise ValueError("adapt_interval must be >= 1")
        self.solver = solver
        self.policy = policy
        self.n_ranks = n_ranks
        self.adapt_interval = adapt_interval
        self.trigger = trigger
        self.adapt_threshold = adapt_threshold
        self.coarsen_below = coarsen_below
        self.tracker = BlockCostTracker()
        self.collector = TelemetryCollector(n_ranks, ranks_per_node)
        self.assignment: Optional[np.ndarray] = None
        self._prev_keys: Optional[np.ndarray] = None
        # Per-assignment-epoch step-recording layout (see _refresh_layout).
        self._row_of: Dict[BlockIndex, int] = {}
        self._per_block: np.ndarray = np.zeros(0)
        self._block_counts: np.ndarray = np.zeros(0, dtype=np.int64)
        self._zero_comm = np.zeros(n_ranks)
        self.redistributions = 0
        self.trigger_skips = 0
        self.migrated_blocks = 0
        self._step_index = 0
        self._epoch = 0

    # ------------------------------------------------------------------ #

    @property
    def mesh(self) -> AmrMesh:
        return self.solver.mesh

    def _measured_costs(self) -> np.ndarray:
        """EWMA-smoothed measured cost per block in SFC order."""
        kt = self.solver.kernel_times
        if kt:
            self.tracker.observe_all(
                block_keys(kt), np.fromiter(kt.values(), dtype=np.float64, count=len(kt))
            )
        return self.tracker.estimates(self.mesh.keys)

    def _refresh_layout(self) -> None:
        """(Re)build the step-recording layout for the current assignment.

        The block→row index, the per-block scratch buffer, and the
        per-rank block counts are invariant between redistributions, so
        they are built once per assignment epoch instead of on every
        step.  ``_block_counts`` is handed to the collector (which keeps
        references) and must never be mutated in place — each refresh
        allocates a fresh array.
        """
        blocks = self.mesh.blocks
        self._row_of = {b: i for i, b in enumerate(blocks)}
        self._per_block = np.zeros(len(blocks))
        self._block_counts = np.bincount(self.assignment, minlength=self.n_ranks)

    def _redistribute(self, force: bool) -> None:
        costs = self._measured_costs()
        keys = self.mesh.keys
        carried = (
            carry_assignment(self._prev_keys, self.assignment, keys)
            if self._prev_keys is not None and self.assignment is not None
            else None
        )
        if not force and self.trigger is not None and carried is not None:
            if (carried >= 0).all():
                decision = self.trigger.evaluate(costs, carried, self.n_ranks)
                if not decision.rebalance:
                    self.trigger_skips += 1
                    self.assignment = carried
                    self._prev_keys = keys
                    self._refresh_layout()
                    return
        result = self.policy.place(costs, self.n_ranks)
        if carried is not None:
            moved = int(((carried != result.assignment) & (carried >= 0)).sum())
            self.migrated_blocks += moved
        self.assignment = result.assignment
        self._prev_keys = keys
        self._refresh_layout()
        self.redistributions += 1

    def _record_step(self) -> None:
        """Attribute measured kernel times to simulated ranks."""
        if self.assignment is None:
            return
        # Scatter this step's kernel times into the preallocated
        # per-block buffer via the epoch's block→row index (blocks with
        # no measurement stay 0, measurements for vanished blocks are
        # dropped — same semantics as rebuilding the array per step).
        per_block = self._per_block
        per_block[:] = 0.0
        row_of = self._row_of
        for block, seconds in self.solver.kernel_times.items():
            row = row_of.get(block)
            if row is not None:
                per_block[row] = seconds
        compute = np.bincount(
            self.assignment, weights=per_block, minlength=self.n_ranks
        )
        # BSP attribution: everyone waits for the slowest rank.
        sync = compute.max() - compute
        self.collector.record_step(
            step=self._step_index,
            epoch=self._epoch,
            compute_s=compute,
            comm_s=self._zero_comm,
            sync_s=sync,
            n_blocks=self._block_counts,
            load=compute,
        )

    # ------------------------------------------------------------------ #

    def run(self, n_steps: int) -> SimulationResult:
        """Advance ``n_steps`` with periodic adaptation + redistribution."""
        if n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.assignment is None:
            # Startup placement: no measurements yet -> unit costs, like
            # the framework default the paper starts from.
            self.assignment = self.policy.place(
                np.ones(self.mesh.n_blocks), self.n_ranks
            ).assignment
            self._prev_keys = self.mesh.keys
            self._refresh_layout()
            self.redistributions += 1

        for _ in range(n_steps):
            self.solver.step()
            self._record_step()
            self._step_index += 1
            if self._step_index % self.adapt_interval == 0:
                n_ref, n_coarse = self.solver.adapt(
                    self.adapt_threshold, self.coarsen_below
                )
                changed = bool(n_ref or n_coarse)
                self._epoch += 1
                self._redistribute(force=changed)
        return SimulationResult(
            n_steps=self._step_index,
            final_time=self.solver.time,
            n_blocks=self.mesh.n_blocks,
            redistributions=self.redistributions,
            trigger_skips=self.trigger_skips,
            migrated_blocks=self.migrated_blocks,
            collector=self.collector,
        )
