"""Online resilience: detect → mitigate → recover (paper §IV, closed loop).

The paper's central lesson is that placement optimization is worthless
until fail-slow hardware and fabric anomalies are detected and pruned.
The base reproduction injects faults statically at job start and runs
the detectors offline; this package closes the loop *online*:

* :class:`HealthMonitor` — windowed anomaly detection over the
  collector's recent step records at each epoch boundary;
* :class:`MitigationEngine` — turns assessments into priced actions:
  node eviction (the paper's "hardware health pruning", applied mid-run)
  and drain-queue enablement when wait spikes implicate ACK recovery;
* :class:`GuardedPolicy` — placement with a per-invocation time budget
  and exception containment, falling down a CDP → chunked CDP → LPT →
  baseline chain with deterministic retry/backoff;
* :class:`DriverCheckpoint` / checkpoint stores — driver-state
  checkpointing (assignment, cost tracker, collector, RNG streams) so a
  fail-stop crash restores on the survivors instead of restarting;
* :func:`run_resilient_trajectory` — the resilient BSP driver wiring it
  all together over a :class:`~repro.simnet.faults.FaultTimeline`.
"""

from .checkpoint import (
    CheckpointStore,
    DriverCheckpoint,
    MemoryCheckpointStore,
)
from .driver import UNMITIGATED, ResilienceConfig, run_resilient_trajectory
from .guard import DEFAULT_CHAIN, GuardedPolicy, GuardEvent
from .mitigation import (
    MITIGATION_KINDS,
    MitigationAction,
    MitigationEngine,
    kind_name,
)
from .monitor import HealthMonitor

__all__ = [
    "CheckpointStore",
    "DEFAULT_CHAIN",
    "DriverCheckpoint",
    "GuardEvent",
    "GuardedPolicy",
    "HealthMonitor",
    "MITIGATION_KINDS",
    "MemoryCheckpointStore",
    "MitigationAction",
    "MitigationEngine",
    "ResilienceConfig",
    "UNMITIGATED",
    "kind_name",
    "run_resilient_trajectory",
]
