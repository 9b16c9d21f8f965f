"""Fail-slow hardware and fabric fault injection (paper §IV-A, Fig. 1b).

Faults here are the *causes* the paper had to diagnose before placement
work could begin:

* **Thermal throttling** — whole nodes slow down by ~4x; with 16 ranks
  per node the telemetry shows slowdowns "in clusters of 16" (Fig. 2).
* **ACK-loss recovery stalls** — the fabric occasionally misses an
  acknowledgment and the driver's recovery path blocks the *sender* in
  ``MPI_Wait`` even though the receiver already has the data (Fig. 1b).

Two layers of injection:

* :class:`FaultModel` — *static* faults present from job start (the
  paper's pre-run health-check scenario);
* :class:`FaultTimeline` — a static base plus *events* that onset
  mid-run: :class:`ThrottleOnset` (a node starts throttling at a given
  step), :class:`NodeCrash` (fail-stop node loss), and
  :class:`FabricDegradation` (a transient window of elevated ACK loss).
  A timeline with no events degenerates exactly to its static base.

Injection is deterministic given the seed so experiments are exactly
reproducible.
"""

from __future__ import annotations

import dataclasses
from typing import List, Tuple, Union

import numpy as np

from .cluster import Cluster

__all__ = [
    "FaultModel",
    "NO_FAULTS",
    "ThrottleOnset",
    "NodeCrash",
    "FabricDegradation",
    "FaultEvent",
    "FaultTimeline",
    "TransportFaultModel",
    "NO_TRANSPORT_FAULTS",
    "MigrationTransportSample",
    "TransportExhaustedError",
    "parse_transport_spec",
]


@dataclasses.dataclass(frozen=True)
class FaultModel:
    """Configured fault injection for a simulated run.

    Attributes
    ----------
    throttled_node_fraction:
        Fraction of nodes thermally throttled at job start.
    ack_loss_prob:
        Per remote-message probability of a missing ACK.
    ack_recovery_s:
        Sender stall caused by one recovery event (when the drain queue
        is disabled).  The paper observed multi-millisecond spikes on
        microsecond-scale messages.
    seed:
        Seed for fault-site selection.
    """

    throttled_node_fraction: float = 0.0
    ack_loss_prob: float = 0.0
    ack_recovery_s: float = 5.0e-3
    seed: int = 12345

    def __post_init__(self) -> None:
        # Seed/fraction interactions are validated here, in one place:
        # node selection below is a deterministic function of (seed,
        # fraction, n_nodes), so both must be well-formed together.
        if not 0.0 <= self.throttled_node_fraction <= 1.0:
            raise ValueError("throttled_node_fraction must be in [0, 1]")
        if not 0.0 <= self.ack_loss_prob <= 1.0:
            raise ValueError("ack_loss_prob must be in [0, 1]")
        if self.ack_recovery_s < 0:
            raise ValueError("ack_recovery_s must be >= 0")
        if not isinstance(self.seed, (int, np.integer)) or isinstance(self.seed, bool):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0 (numpy Generator requirement)")

    def throttled_node_ids(self, n_nodes: int) -> List[int]:
        """Deterministic fault-site selection for a cluster of ``n_nodes``.

        At least one node is selected whenever the fraction is positive
        (a tiny cluster still exhibits the fault), never more than
        ``n_nodes``.
        """
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if self.throttled_node_fraction == 0.0:
            return []
        rng = np.random.default_rng(self.seed)
        n_bad = int(round(self.throttled_node_fraction * n_nodes))
        n_bad = min(max(n_bad, 1), n_nodes)
        bad = rng.choice(n_nodes, size=n_bad, replace=False)
        return sorted(int(b) for b in bad)

    def apply_to_cluster(self, cluster: Cluster) -> Cluster:
        """Throttle the selected fraction of nodes (deterministic)."""
        bad = self.throttled_node_ids(cluster.n_nodes)
        if not bad:
            return cluster
        return cluster.throttle_nodes(bad)

    def sample_ack_stalls(
        self,
        remote_sends_per_rank: np.ndarray,
        drain_queue: bool,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Sampled per-rank sender stall for one step (spiky, Fig. 1b).

        Binomial number of recovery events per rank; each event stalls
        the sender the full recovery time — so most steps see zero and a
        few see multi-millisecond spikes, reproducing the telemetry
        signature rather than its mean.
        """
        sends = np.asarray(remote_sends_per_rank)
        if drain_queue or self.ack_loss_prob == 0.0:
            return np.zeros(sends.shape[0], dtype=np.float64)
        events = rng.binomial(np.maximum(sends, 0).astype(np.int64), self.ack_loss_prob)
        return events.astype(np.float64) * self.ack_recovery_s


#: A healthy cluster and fabric.
NO_FAULTS = FaultModel()


# --------------------------------------------------------------------- #
# Mid-run fault events
# --------------------------------------------------------------------- #


@dataclasses.dataclass(frozen=True)
class ThrottleOnset:
    """Thermal throttling that *begins* mid-run on specific nodes.

    ``nodes`` are original (job-start) node ids; the resilient driver
    maps them through evictions.  ``factor`` overrides the machine's
    default throttle factor when given.
    """

    step: int
    nodes: Tuple[int, ...]
    factor: float | None = None

    def __post_init__(self) -> None:
        if self.step < 0:
            raise ValueError("onset step must be >= 0")
        nodes = tuple(int(n) for n in self.nodes)
        if not nodes:
            raise ValueError("ThrottleOnset needs at least one node")
        if len(set(nodes)) != len(nodes):
            raise ValueError(f"duplicate node ids in {nodes}")
        if any(n < 0 for n in nodes):
            raise ValueError(f"node ids must be >= 0, got {nodes}")
        object.__setattr__(self, "nodes", nodes)
        if self.factor is not None and self.factor < 1.0:
            raise ValueError("throttle factor must be >= 1")


@dataclasses.dataclass(frozen=True)
class NodeCrash:
    """Fail-stop loss of one node at a given step (kills the job)."""

    step: int
    node: int

    def __post_init__(self) -> None:
        if self.step < 0:
            raise ValueError("crash step must be >= 0")
        if self.node < 0:
            raise ValueError("node id must be >= 0")


@dataclasses.dataclass(frozen=True)
class FabricDegradation:
    """A transient window of elevated fabric ACK loss.

    Active for steps in ``[step, end_step)``.  ``ack_recovery_s`` of
    ``None`` keeps the base model's recovery time.
    """

    step: int
    end_step: int
    ack_loss_prob: float
    ack_recovery_s: float | None = None

    def __post_init__(self) -> None:
        if self.step < 0:
            raise ValueError("window start step must be >= 0")
        if self.end_step <= self.step:
            raise ValueError(
                f"window [{self.step}, {self.end_step}) is empty or inverted"
            )
        if not 0.0 <= self.ack_loss_prob <= 1.0:
            raise ValueError("ack_loss_prob must be in [0, 1]")
        if self.ack_recovery_s is not None and self.ack_recovery_s < 0:
            raise ValueError("ack_recovery_s must be >= 0")


FaultEvent = Union[ThrottleOnset, NodeCrash, FabricDegradation]


@dataclasses.dataclass(frozen=True)
class FaultTimeline:
    """A static fault base plus mid-run fault events.

    The degenerate case — no events — behaves exactly like the static
    :class:`FaultModel` it wraps, so existing static experiments are a
    subset of timeline experiments.
    """

    base: FaultModel = NO_FAULTS
    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        events = tuple(self.events)
        for e in events:
            if not isinstance(e, (ThrottleOnset, NodeCrash, FabricDegradation)):
                raise TypeError(f"unsupported fault event {e!r}")
        crashed = [e.node for e in events if isinstance(e, NodeCrash)]
        if len(set(crashed)) != len(crashed):
            raise ValueError(f"a node can only crash once; got crashes on {crashed}")
        object.__setattr__(
            self, "events", tuple(sorted(events, key=lambda e: e.step))
        )

    @classmethod
    def static(cls, model: FaultModel = NO_FAULTS) -> "FaultTimeline":
        """The degenerate timeline: static faults only."""
        return cls(base=model)

    # -- queries the resilient driver runs per epoch -------------------- #

    def throttle_onsets_in(self, step_lo: int, step_hi: int) -> List[ThrottleOnset]:
        """Throttle onsets firing in ``[step_lo, step_hi)``."""
        return [
            e
            for e in self.events
            if isinstance(e, ThrottleOnset) and step_lo <= e.step < step_hi
        ]

    def crashes_in(self, step_lo: int, step_hi: int) -> List[NodeCrash]:
        """Fail-stop crashes firing in ``[step_lo, step_hi)``."""
        return [
            e
            for e in self.events
            if isinstance(e, NodeCrash) and step_lo <= e.step < step_hi
        ]

    def fault_model_at(self, step: int) -> FaultModel:
        """Effective static-equivalent fault model during ``step``.

        Folds any active :class:`FabricDegradation` window into the base
        model's ACK parameters (worst active window wins).
        """
        prob = self.base.ack_loss_prob
        rec = self.base.ack_recovery_s
        changed = False
        for e in self.events:
            if isinstance(e, FabricDegradation) and e.step <= step < e.end_step:
                prob = max(prob, e.ack_loss_prob)
                if e.ack_recovery_s is not None:
                    rec = max(rec, e.ack_recovery_s)
                changed = True
        if not changed:
            return self.base
        return dataclasses.replace(
            self.base, ack_loss_prob=prob, ack_recovery_s=rec
        )


# --------------------------------------------------------------------- #
# Unreliable transport: loss / duplication / reorder + retransmission
# --------------------------------------------------------------------- #


class TransportExhaustedError(RuntimeError):
    """A message (or migration transfer) exhausted its retry budget.

    At the discrete-event layer this aborts the simulated program (the
    fabric is effectively partitioned for that link); at the epoch-engine
    layer :class:`repro.engine.TransportHook` catches the equivalent
    condition and rolls the redistribution back instead.
    """


@dataclasses.dataclass(frozen=True)
class MigrationTransportSample:
    """Sampled transport behaviour of one bulk block migration.

    Produced by :meth:`TransportFaultModel.sample_migration`: a
    deterministic (given the RNG state) draw of how many copies were
    dropped, retransmitted, duplicated, and reordered while migrating
    ``attempted`` blocks, plus the timeout/backoff stall of the slowest
    transfer and the number of transfers that exhausted the retry budget.
    """

    attempted: int = 0
    retransmits: int = 0
    drops: int = 0
    duplicates: int = 0        #: duplicate copies suppressed at receivers
    reorders: int = 0          #: copies delivered out of order (resequenced)
    stall_s: float = 0.0       #: timeout/backoff stall of the critical transfer
    failed: int = 0            #: transfers that exhausted the retry budget

    @property
    def exhausted(self) -> bool:
        return self.failed > 0


@dataclasses.dataclass(frozen=True)
class TransportFaultModel:
    """Per-link unreliable-fabric behaviour plus the retransmit protocol.

    The paper spent weeks pruning unhealthy nodes and tuning MVAPICH2/PSM
    retransmission before its telemetry could be trusted (§III); this
    model makes the simulated fabric *lossy* so that the resilience stack
    can be exercised against partial failure of the data path, not just
    slow hardware.

    Attributes
    ----------
    loss_prob:
        Per-copy probability that a remote message (data or its ACK) is
        dropped on the wire.
    duplicate_prob:
        Per-delivered-copy probability the fabric delivers it twice
        (receivers suppress duplicates by sequence number).
    reorder_prob:
        Per-copy probability the copy is delayed by ``reorder_delay_s``,
        potentially arriving after its successors (receivers restore
        per-channel order via a resequencing buffer).
    reorder_delay_s:
        Extra latency applied to a reordered copy.
    ack_timeout_s:
        Initial retransmission timeout; doubles (``backoff_factor``) on
        every unacknowledged attempt.
    backoff_factor:
        Exponential-backoff multiplier on the retransmission timeout.
    max_retries:
        Retransmissions allowed per message before the transfer is
        declared failed (``max_retries + 1`` attempts total).
    bad_links:
        Unordered node-id pairs whose link multiplies ``loss_prob`` by
        ``bad_link_factor`` (the paper's flaky-cable scenario).
    bad_link_factor:
        Loss multiplier on ``bad_links`` (capped so delivery stays
        possible).
    seed:
        Seed of the dedicated transport RNG stream, kept separate from
        the compute/measurement streams so enabling transport faults
        never perturbs them.
    """

    loss_prob: float = 0.0
    duplicate_prob: float = 0.0
    reorder_prob: float = 0.0
    reorder_delay_s: float = 250.0e-6
    ack_timeout_s: float = 2.0e-3
    backoff_factor: float = 2.0
    max_retries: int = 6
    bad_links: Tuple[Tuple[int, int], ...] = ()
    bad_link_factor: float = 10.0
    seed: int = 777

    _LINK_LOSS_CAP = 0.99

    def __post_init__(self) -> None:
        for name in ("loss_prob", "duplicate_prob", "reorder_prob"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        for name in ("reorder_delay_s", "ack_timeout_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.bad_link_factor < 1.0:
            raise ValueError("bad_link_factor must be >= 1")
        links = tuple(
            (min(int(a), int(b)), max(int(a), int(b))) for a, b in self.bad_links
        )
        for a, b in links:
            if a < 0:
                raise ValueError(f"node ids must be >= 0, got link ({a}, {b})")
        object.__setattr__(self, "bad_links", links)
        if not isinstance(self.seed, (int, np.integer)) or isinstance(self.seed, bool):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0 (numpy Generator requirement)")

    @property
    def is_active(self) -> bool:
        """Whether any fault rate is nonzero (rate 0 = today's fabric)."""
        return (
            self.loss_prob > 0.0
            or self.duplicate_prob > 0.0
            or self.reorder_prob > 0.0
        )

    def link_loss_prob(self, node_a: int, node_b: int) -> float:
        """Per-copy loss probability on the (node_a, node_b) link."""
        p = self.loss_prob
        if self.bad_links:
            key = (min(int(node_a), int(node_b)), max(int(node_a), int(node_b)))
            if key in self.bad_links:
                p = min(p * self.bad_link_factor, self._LINK_LOSS_CAP)
        return p

    def attempt_failure_prob(self, node_a: int, node_b: int) -> float:
        """Probability one attempt fails: the data copy *or* its ACK lost."""
        p = self.link_loss_prob(node_a, node_b)
        return 1.0 - (1.0 - p) * (1.0 - p)

    def retry_stall_s(self, n_timeouts: np.ndarray | int) -> np.ndarray | float:
        """Total timeout/backoff stall after ``n_timeouts`` expired timers.

        Geometric series ``rto * (b^n - 1) / (b - 1)`` (or ``rto * n``
        when the backoff factor is 1).
        """
        n = np.asarray(n_timeouts, dtype=np.float64)
        if self.backoff_factor == 1.0:
            out = self.ack_timeout_s * n
        else:
            b = self.backoff_factor
            out = self.ack_timeout_s * (np.power(b, n) - 1.0) / (b - 1.0)
        return out if out.ndim else float(out)

    def sample_migration(
        self,
        src_nodes: np.ndarray,
        dst_nodes: np.ndarray,
        rng: np.random.Generator,
    ) -> MigrationTransportSample:
        """Sample the transport behaviour of one bulk migration.

        One transfer per migrating block, each crossing the
        ``(src_node, dst_node)`` link once per attempt.  Per transfer the
        number of attempts needed is geometric in the per-attempt failure
        probability (data copy or ACK lost); a transfer needing more than
        ``max_retries + 1`` attempts has exhausted its budget and counts
        as *failed* — the caller rolls the redistribution back.  The
        stall charge is the slowest single transfer's accumulated
        timeout/backoff wait (transfers overlap across ranks).
        """
        src = np.asarray(src_nodes, dtype=np.int64)
        dst = np.asarray(dst_nodes, dtype=np.int64)
        n = int(src.shape[0])
        if n == 0 or not self.is_active:
            return MigrationTransportSample(attempted=n)
        q = np.array(
            [self.attempt_failure_prob(a, b) for a, b in zip(src, dst)],
            dtype=np.float64,
        )
        budget = self.max_retries + 1
        if np.any(q > 0.0):
            needed = rng.geometric(np.maximum(1.0 - q, 1e-12))
        else:
            needed = np.ones(n, dtype=np.int64)
        failed_mask = needed > budget
        attempts = np.minimum(needed, budget)
        retransmits = int((attempts - 1).sum())
        n_failed = int(failed_mask.sum())
        drops = retransmits + n_failed
        total_attempts = int(attempts.sum())
        duplicates = (
            int(rng.binomial(total_attempts, self.duplicate_prob))
            if self.duplicate_prob > 0.0
            else 0
        )
        reorders = (
            int(rng.binomial(total_attempts, self.reorder_prob))
            if self.reorder_prob > 0.0
            else 0
        )
        # A failed transfer waits out every timeout in its budget; a
        # successful one waits one timeout per retransmission.
        timeouts = attempts - 1 + failed_mask.astype(np.int64)
        stall_s = float(np.max(self.retry_stall_s(timeouts))) if n else 0.0
        return MigrationTransportSample(
            attempted=n,
            retransmits=retransmits,
            drops=drops,
            duplicates=duplicates,
            reorders=reorders,
            stall_s=stall_s,
            failed=n_failed,
        )


#: A perfectly reliable fabric: every copy delivered exactly once.
NO_TRANSPORT_FAULTS = TransportFaultModel()

#: ``parse_transport_spec`` key → (field, converter).
_TRANSPORT_SPEC_KEYS = {
    "loss": ("loss_prob", float),
    "dup": ("duplicate_prob", float),
    "reorder": ("reorder_prob", float),
    "reorder_delay": ("reorder_delay_s", float),
    "timeout": ("ack_timeout_s", float),
    "backoff": ("backoff_factor", float),
    "retries": ("max_retries", int),
    "bad_link_factor": ("bad_link_factor", float),
    "seed": ("seed", int),
}


def parse_transport_spec(spec: str) -> TransportFaultModel:
    """Parse a CLI transport-fault spec into a :class:`TransportFaultModel`.

    Format: comma-separated ``key=value`` pairs, e.g.
    ``"loss=0.05,dup=0.01,reorder=0.02,retries=4,seed=11"``.  Keys:
    ``loss``, ``dup``, ``reorder``, ``reorder_delay``, ``timeout``,
    ``backoff``, ``retries``, ``bad_link_factor``, ``seed``.
    """
    kwargs = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(
                f"bad transport spec item {part!r}: expected key=value"
            )
        key, _, raw = part.partition("=")
        key = key.strip()
        if key not in _TRANSPORT_SPEC_KEYS:
            raise ValueError(
                f"unknown transport spec key {key!r}; "
                f"valid: {sorted(_TRANSPORT_SPEC_KEYS)}"
            )
        field, conv = _TRANSPORT_SPEC_KEYS[key]
        try:
            kwargs[field] = conv(raw.strip())
        except ValueError as exc:
            raise ValueError(f"bad value for {key!r}: {raw!r}") from exc
    return TransportFaultModel(**kwargs)
