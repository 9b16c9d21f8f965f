"""Mitigation engine: turn health assessments into priced actions.

Each mitigation the paper applied manually becomes an online action:

* **evict** — drop nodes flagged as thermally throttled from the job
  (the mid-run version of §IV-A's health-check pruning) and re-place
  every block on the healthy subset;
* **drain_queue** — enable the background ACK-recovery drain when wait
  spikes implicate the fabric recovery path (Fig. 1b);
* **checkpoint** / **restore** — driver-state checkpointing and
  crash recovery (bookkept here so all resilience actions share one
  telemetry log).

Every action carries a *simulated* wall-clock cost: evicting nodes
costs coordination plus re-materializing the lost blocks over the
fabric, enabling the drain queue costs a reconfiguration barrier,
checkpoints cost a write, restores cost a relaunch-and-read.  Nothing
is free — which is exactly why the unmitigated arm of an experiment can
still win when faults never materialize.
"""

from __future__ import annotations

import dataclasses
from typing import List, Tuple

from ..simnet.machine import FabricSpec
from ..telemetry.anomaly import AnomalyAssessment

__all__ = ["MITIGATION_KINDS", "MitigationAction", "MitigationEngine"]

#: Integer codes used in the telemetry mitigation log (columnar tables
#: store dimensions as ints).
MITIGATION_KINDS = {
    "evict": 1,
    "drain_queue": 2,
    "checkpoint": 3,
    "restore": 4,
    "policy_fallback": 5,
    # codes 6/7 are mirrored as literals in repro.engine.transport
    # (the engine layer cannot import resilience)
    "transport_rollback": 6,
    "stale_placement": 7,
}

_KIND_NAMES = {v: k for k, v in MITIGATION_KINDS.items()}


def kind_name(code: int) -> str:
    """Human-readable name of a mitigation kind code."""
    return _KIND_NAMES.get(code, f"unknown({code})")


@dataclasses.dataclass(frozen=True)
class MitigationAction:
    """One planned resilience action, priced in simulated seconds."""

    kind: str
    step: int
    epoch: int
    nodes: Tuple[int, ...] = ()
    cost_s: float = 0.0
    detail: str = ""

    @property
    def kind_code(self) -> int:
        return MITIGATION_KINDS[self.kind]


class MitigationEngine:
    """Decides which mitigations to apply and what they cost.

    Parameters
    ----------
    min_spikes_for_drain:
        Wait-spike count in one window below which the drain queue is
        left alone (isolated spikes are noise; the ACK pathology shows
        repeated spikes).
    drain_enable_cost_s:
        Simulated cost of the reconfiguration barrier that enables the
        drain queue mid-run.
    eviction_overhead_s:
        Fixed coordination cost per eviction: shrink the communicator,
        update the blacklist, rebuild neighbor metadata.
    block_bytes:
        Payload bytes per re-materialized block (lost with an evicted
        or crashed node; restored from the last checkpoint's data).
    """

    def __init__(
        self,
        min_spikes_for_drain: int = 2,
        drain_enable_cost_s: float = 1.0,
        eviction_overhead_s: float = 5.0,
        block_bytes: float = 16**3 * 10 * 8,
    ) -> None:
        if min_spikes_for_drain < 1:
            raise ValueError("min_spikes_for_drain must be >= 1")
        self.min_spikes_for_drain = min_spikes_for_drain
        self.drain_enable_cost_s = drain_enable_cost_s
        self.eviction_overhead_s = eviction_overhead_s
        self.block_bytes = block_bytes
        self.actions: List[MitigationAction] = []

    # ------------------------------------------------------------------ #

    def eviction_cost_s(self, n_blocks_lost: int, fabric: FabricSpec) -> float:
        """Simulated cost of evicting nodes holding ``n_blocks_lost`` blocks.

        The lost blocks stream from the checkpoint/replica store to the
        survivors over the fabric (bandwidth in cells/s, 8 B per cell),
        on top of the fixed coordination overhead.
        """
        transfer = n_blocks_lost * self.block_bytes / 8.0 / fabric.remote_bandwidth
        return self.eviction_overhead_s + transfer

    def plan(
        self,
        assessment: AnomalyAssessment,
        *,
        step: int,
        epoch: int,
        drain_enabled: bool,
        n_nodes_alive: int,
        blocks_per_node: dict[int, int],
        fabric: FabricSpec,
    ) -> List[MitigationAction]:
        """Actions warranted by one windowed assessment.

        Evictions never remove the last node; if every node is flagged
        (a global slowdown is not a node fault) nothing is evicted.
        """
        planned: List[MitigationAction] = []

        bad = list(assessment.throttle.throttled_nodes)
        if bad and len(bad) < n_nodes_alive:
            lost = sum(blocks_per_node.get(n, 0) for n in bad)
            planned.append(
                MitigationAction(
                    kind="evict",
                    step=step,
                    epoch=epoch,
                    nodes=tuple(bad),
                    cost_s=self.eviction_cost_s(lost, fabric),
                    detail=f"compute inflation {assessment.throttle.slowdown_by_node[bad].max():.1f}x"
                    if len(assessment.throttle.slowdown_by_node)
                    else "compute inflation",
                )
            )

        if (
            not drain_enabled
            and assessment.spikes.n_spikes >= self.min_spikes_for_drain
            and assessment.spikes_implicate_ack
        ):
            planned.append(
                MitigationAction(
                    kind="drain_queue",
                    step=step,
                    epoch=epoch,
                    cost_s=self.drain_enable_cost_s,
                    detail=f"{assessment.spikes.n_spikes} wait spikes above "
                    f"{assessment.spikes.threshold_s * 1e3:.1f} ms on remote-traffic ranks",
                )
            )

        return planned

    def record(self, action: MitigationAction) -> None:
        """Log an action the run applied (planned or not)."""
        self.actions.append(action)
