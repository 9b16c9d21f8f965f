"""Simulated MPI semantics on the discrete-event engine.

Implements the subset of MPI that AMR boundary exchange uses —
nonblocking P2P (``isend``/``irecv``/``wait``) and blocking collectives
(``allreduce``/``barrier``) — with faithful *happened-before* semantics:
a receive completes no earlier than its matching send's dispatch plus
transport latency, and a collective completes for everyone only after
the last rank arrives.  These are exactly the ordering rules the
critical-path model of §IV-D relies on.

Rank programs are generators driven by :class:`~repro.simnet.events.Engine`;
all MPI calls are sub-generators used with ``yield from``.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Generator, List, Tuple

import numpy as np

from .cluster import Cluster
from .events import Emit, Engine, SimEvent, Timeout, WaitEvent
from .faults import (
    NO_FAULTS,
    NO_TRANSPORT_FAULTS,
    FaultModel,
    TransportExhaustedError,
    TransportFaultModel,
)
from .machine import DEFAULT_FABRIC, FabricSpec
from .tuning import TUNED, TuningConfig

__all__ = ["SimMPI", "Request", "PhaseTimes", "TransportStats"]


@dataclasses.dataclass
class Request:
    """Handle for a nonblocking operation (completion event + metadata)."""

    kind: str                   # "send" | "recv"
    event: SimEvent
    src: int
    dst: int
    tag: int
    size: float


@dataclasses.dataclass
class PhaseTimes:
    """Per-rank accumulated phase telemetry for a simulated program."""

    compute_s: float = 0.0
    wait_s: float = 0.0
    sync_s: float = 0.0


@dataclasses.dataclass
class TransportStats:
    """Counters of the reliable-transport protocol for one simulated run.

    ``delivered_order`` logs, per (src, dst, tag) channel, the sequence
    numbers in the order the resequencing buffer released them to the
    application — the property tests assert it is always ``0..n-1``.
    """

    messages: int = 0             #: logical sends entering the protocol
    attempts: int = 0             #: copies put on the wire (incl. retransmits)
    delivered: int = 0            #: in-order releases to the application
    drops: int = 0                #: copies (data or ACK) lost on the wire
    retransmits: int = 0          #: timeout-driven re-sends
    duplicates: int = 0           #: fabric-injected duplicate copies
    dup_suppressed: int = 0       #: copies discarded by sequence check
    reorders: int = 0             #: copies delayed past their successors
    exhausted: int = 0            #: messages that ran out of retries
    delivered_order: Dict[Tuple[int, int, int], List[int]] = dataclasses.field(
        default_factory=dict
    )


class _Mailbox:
    """Unordered-match mailbox for one (src, dst, tag) channel.

    MPI matches sends to receives in posting order per channel; we keep
    FIFO lists of unmatched arrivals and unmatched recv requests.
    """

    __slots__ = ("arrivals", "pending")

    def __init__(self) -> None:
        self.arrivals: List[Tuple[float, Any]] = []   # payloads already arrived
        self.pending: List[SimEvent] = []             # recv events awaiting arrival


class SimMPI:
    """A simulated MPI world over a cluster + fabric + tuning config.

    Parameters mirror a job launch: the cluster supplies topology
    (local vs remote paths), the fabric supplies the latency model, the
    tuning config and fault model shape the anomaly behaviour.
    """

    def __init__(
        self,
        engine: Engine,
        cluster: Cluster,
        fabric: FabricSpec = DEFAULT_FABRIC,
        tuning: TuningConfig = TUNED,
        faults: FaultModel = NO_FAULTS,
        transport: TransportFaultModel = NO_TRANSPORT_FAULTS,
        seed: int = 0,
    ) -> None:
        self.engine = engine
        self.cluster = cluster
        self.fabric = fabric
        self.tuning = tuning
        self.faults = faults
        self.transport = transport
        self.rng = np.random.default_rng(seed)
        self.n_ranks = cluster.n_ranks
        self._boxes: Dict[Tuple[int, int, int], _Mailbox] = {}
        self._nic_free = np.zeros(self.n_ranks, dtype=np.float64)
        self._barriers: List[Dict[str, Any]] = []
        self._barrier_round = np.zeros(self.n_ranks, dtype=np.int64)
        self.phases: List[PhaseTimes] = [PhaseTimes() for _ in range(self.n_ranks)]
        self.message_log: List[Tuple[int, int, int, float, float]] = []
        # Reliable-transport state (touched only when transport.is_active:
        # the rate-0 default leaves every code path and RNG draw of the
        # reliable fabric bit-identical to the pre-transport layer).
        self.transport_stats = TransportStats()
        self._trng = np.random.default_rng((seed, transport.seed))
        self._send_seq: Dict[Tuple[int, int, int], int] = {}
        self._recv_seq: Dict[Tuple[int, int, int], int] = {}
        self._resequence: Dict[Tuple[int, int, int], Dict[int, None]] = {}

    # ------------------------------------------------------------------ #
    # latency model
    # ------------------------------------------------------------------ #

    def is_local(self, src: int, dst: int) -> bool:
        return int(self.cluster.node_of(src)) == int(self.cluster.node_of(dst))

    def message_latency(self, src: int, dst: int, size: float) -> float:
        """One-way transport latency for a message of ``size`` cells.

        Adds the receiver-side service time with NIC/queue serialization:
        back-to-back arrivals at one rank are spaced by the service time,
        which is what makes traffic hotspots visible (Fig. 7a).  The
        local path additionally draws heavy-tailed service noise when the
        shared-memory queue is undersized (Fig. 1a / Fig. 3 right).
        """
        f = self.fabric
        if self.is_local(src, dst):
            base = f.local_latency_s + size / f.local_bandwidth
            service = f.local_service_s
            sigma = self.tuning.queue_contention_sigma(local_msgs_per_rank=8.0)
            service *= float(self.rng.lognormal(0.0, sigma))
        else:
            base = f.remote_latency_s + size / f.remote_bandwidth
            service = f.remote_service_s
        dispatch = self.engine.now
        arrival = max(dispatch + base, float(self._nic_free[dst])) + service
        self._nic_free[dst] = arrival
        return arrival - dispatch

    # ------------------------------------------------------------------ #
    # point-to-point
    # ------------------------------------------------------------------ #

    def _box(self, src: int, dst: int, tag: int) -> _Mailbox:
        key = (src, dst, tag)
        box = self._boxes.get(key)
        if box is None:
            box = self._boxes[key] = _Mailbox()
        return box

    def isend(self, src: int, dst: int, tag: int, size: float = 1.0) -> Request:
        """Post a nonblocking send; returns immediately (buffered).

        The matching receive completes after transport latency.  The
        *send request* itself completes immediately unless an ACK-loss
        recovery stall is injected (and the drain queue is off), in which
        case waiting on it blocks for the recovery time — the Fig. 1b
        anomaly.

        With an active :class:`TransportFaultModel` a *remote* send goes
        through the reliable-delivery protocol instead: per-channel
        sequence numbers, positive ACKs, timeout retransmission with
        exponential backoff, receiver-side duplicate suppression and
        resequencing.  The send request then completes when the message
        is acknowledged.
        """
        if self.transport.is_active and not self.is_local(src, dst):
            return self._isend_reliable(src, dst, tag, size)
        now = self.engine.now
        latency = self.message_latency(src, dst, size)
        arrival_ev = self.engine.event()
        self._deliver_later(latency, src, dst, tag, arrival_ev)
        self.message_log.append((src, dst, tag, now, now + latency))

        send_ev = self.engine.event()
        stall = 0.0
        if (
            not self.tuning.drain_queue
            and self.faults.ack_loss_prob > 0.0
            and not self.is_local(src, dst)
            and self.rng.random() < self.faults.ack_loss_prob
        ):
            stall = self.faults.ack_recovery_s
        if stall > 0.0:
            self._fire_later(stall, send_ev)
        else:
            self.engine.fire(send_ev)
        return Request("send", send_ev, src, dst, tag, size)

    def irecv(self, dst: int, src: int, tag: int) -> Request:
        """Post a nonblocking receive; completes when the message arrives."""
        box = self._box(src, dst, tag)
        ev = self.engine.event()
        if box.arrivals:
            _, payload = box.arrivals.pop(0)
            self.engine.fire(ev, payload)
        else:
            box.pending.append(ev)
        return Request("recv", ev, src, dst, tag, 0.0)

    def wait(self, rank: int, request: Request) -> Generator:
        """Block until a request completes; accrues MPI_Wait telemetry."""
        t0 = self.engine.now
        if not request.event.fired:
            yield WaitEvent(request.event)
        self.phases[rank].wait_s += self.engine.now - t0

    def waitall(self, rank: int, requests: List[Request]) -> Generator:
        """Wait on a list of requests (order-independent completion)."""
        for req in requests:
            yield from self.wait(rank, req)

    # ------------------------------------------------------------------ #
    # compute + collectives
    # ------------------------------------------------------------------ #

    def compute(self, rank: int, seconds: float) -> Generator:
        """Run a compute kernel: advances this rank's clock; telemetry."""
        speed = float(self.cluster.rank_speed_factor()[rank])
        dt = seconds * speed
        self.phases[rank].compute_s += dt
        yield Timeout(dt)

    def allreduce(self, rank: int) -> Generator:
        """Blocking allreduce: completes for all after the last arrival.

        The completion adds the fabric's collective cost (log2 r tree).
        Per-rank sync telemetry is the stall between arrival and
        completion — exactly how the paper's telemetry attributes
        synchronization time to stragglers.
        """
        rnd = int(self._barrier_round[rank])
        self._barrier_round[rank] += 1
        while len(self._barriers) <= rnd:
            self._barriers.append(
                {"arrived": 0, "event": self.engine.event(), "t_last": 0.0}
            )
        bar = self._barriers[rnd]
        bar["arrived"] += 1
        bar["t_last"] = self.engine.now
        t0 = self.engine.now
        if bar["arrived"] == self.n_ranks:
            self._fire_later(self.fabric.collective_cost_s(self.n_ranks), bar["event"])
        if not bar["event"].fired:
            yield WaitEvent(bar["event"])
        self.phases[rank].sync_s += self.engine.now - t0

    barrier = allreduce  # identical timing semantics in this model

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #

    def _deliver_later(
        self, delay: float, src: int, dst: int, tag: int, arrival_ev: SimEvent
    ) -> None:
        def timer() -> Generator:
            yield Timeout(delay)
            box = self._box(src, dst, tag)
            if box.pending:
                ev = box.pending.pop(0)
                yield Emit(ev, None)
            else:
                box.arrivals.append((self.engine.now, None))
            yield Emit(arrival_ev, None)

        self.engine.spawn(timer(), name=f"msg {src}->{dst}#{tag}")

    def _fire_later(self, delay: float, event: SimEvent) -> None:
        def timer() -> Generator:
            yield Timeout(delay)
            yield Emit(event, None)

        self.engine.spawn(timer(), name="timer")

    # ------------------------------------------------------------------ #
    # reliable-delivery protocol (active TransportFaultModel only)
    # ------------------------------------------------------------------ #

    def _isend_reliable(self, src: int, dst: int, tag: int, size: float) -> Request:
        """Send one message through the ACK/retransmit protocol.

        The returned request's event fires when the sender receives the
        ACK (reliable-completion semantics).  Raises
        :class:`TransportExhaustedError` out of the engine loop if the
        retry budget is exhausted — the link is effectively down.
        """
        t = self.transport
        key = (src, dst, tag)
        seq = self._send_seq.get(key, 0)
        self._send_seq[key] = seq + 1
        self.transport_stats.messages += 1
        p_loss = t.link_loss_prob(
            int(self.cluster.node_of(src)), int(self.cluster.node_of(dst))
        )
        send_ev = self.engine.event()

        def sender() -> Generator:
            stats = self.transport_stats
            rto = t.ack_timeout_s
            for attempt in range(t.max_retries + 1):
                stats.attempts += 1
                data_lost = self._trng.random() < p_loss
                ack_lost = False
                if not data_lost:
                    latency = self.message_latency(src, dst, size)
                    if self._trng.random() < t.reorder_prob:
                        latency += t.reorder_delay_s
                        stats.reorders += 1
                    t0 = self.engine.now
                    self._deliver_copy_later(latency, src, dst, tag, seq)
                    self.message_log.append((src, dst, tag, t0, t0 + latency))
                    if self._trng.random() < t.duplicate_prob:
                        stats.duplicates += 1
                        stats.attempts += 1
                        self._deliver_copy_later(
                            latency + self.fabric.ack_latency_s, src, dst, tag, seq
                        )
                    ack_lost = self._trng.random() < p_loss
                    if not ack_lost:
                        # Sender learns of success after the ACK round trip.
                        yield Timeout(latency + self.fabric.ack_latency_s)
                        yield Emit(send_ev, None)
                        return
                stats.drops += 1
                yield Timeout(rto)
                rto *= t.backoff_factor
                if attempt < t.max_retries:
                    stats.retransmits += 1
            stats.exhausted += 1
            raise TransportExhaustedError(
                f"message {src}->{dst}#{tag} seq {seq} undelivered after "
                f"{t.max_retries} retransmissions"
            )

        self.engine.spawn(sender(), name=f"xmit {src}->{dst}#{tag}:{seq}")
        return Request("send", send_ev, src, dst, tag, size)

    def _deliver_copy_later(
        self, delay: float, src: int, dst: int, tag: int, seq: int
    ) -> None:
        """Schedule one wire copy; the receiver resequences on arrival."""

        def timer() -> Generator:
            yield Timeout(delay)
            for ev, payload in self._accept_copy(src, dst, tag, seq):
                yield Emit(ev, payload)

        self.engine.spawn(timer(), name=f"copy {src}->{dst}#{tag}:{seq}")

    def _accept_copy(self, src: int, dst: int, tag: int, seq: int):
        """Receiver-side protocol: suppress duplicates, restore order.

        Returns the (event, payload) pairs to fire for every message the
        in-order prefix release hands to the application mailbox.
        """
        key = (src, dst, tag)
        stats = self.transport_stats
        expected = self._recv_seq.get(key, 0)
        buf = self._resequence.setdefault(key, {})
        if seq < expected or seq in buf:
            stats.dup_suppressed += 1
            return []
        buf[seq] = None
        fires = []
        box = self._box(src, dst, tag)
        order = stats.delivered_order.setdefault(key, [])
        while expected in buf:
            del buf[expected]
            order.append(expected)
            stats.delivered += 1
            if box.pending:
                fires.append((box.pending.pop(0), None))
            else:
                box.arrivals.append((self.engine.now, None))
            expected += 1
        self._recv_seq[key] = expected
        return fires
