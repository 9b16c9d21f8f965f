"""Per-block task DAGs for one synchronization window (§II-B, §IV-D).

AMR execution within a timestep is a DAG of tasks per block: receive
ghost data, compute, pack and send boundary data, flux correction.  The
schedule (linear order per rank respecting dependencies) determines when
sends dispatch — the lever behind the §IV-B task-reordering fix.

These DAGs feed two consumers: the critical-path analyzer
(:mod:`repro.critical_path`) and the discrete-event simulator
(:mod:`repro.simnet.mpi`), which executes a schedule faithfully.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = ["TaskKind", "Task", "TaskGraph", "build_exchange_graph", "rank_schedule"]


class TaskKind(enum.Enum):
    """Task categories of a boundary-exchange window (§II-B)."""

    COMPUTE = "compute"
    SEND = "send"
    RECV = "recv"          # the wait-for-arrival; posting is free
    FLUX = "flux"
    SYNC = "sync"


@dataclasses.dataclass(frozen=True)
class Task:
    """One schedulable unit.

    ``duration`` is the task's fixed service time (compute kernels and
    pack costs); RECV tasks have zero duration — their time is entirely
    *wait*, the only flexible-duration component (§IV-D).
    """

    tid: int
    rank: int
    kind: TaskKind
    duration: float = 0.0
    block: int = -1
    peer_rank: int = -1      # for SEND/RECV: the other endpoint's rank
    peer_block: int = -1     # for SEND/RECV: the other endpoint's block
    tag: int = -1            # matches a SEND to its RECV

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError("task duration must be >= 0")


class TaskGraph:
    """A DAG of tasks with rank affinity.

    Edges are happened-before dependencies *within* ranks (program
    order / data deps); cross-rank dependencies are implied by matching
    SEND/RECV tags and materialized by the analyzer.
    """

    def __init__(self) -> None:
        self.tasks: List[Task] = []
        self.deps: Dict[int, List[int]] = {}

    def add(
        self,
        rank: int,
        kind: TaskKind,
        duration: float = 0.0,
        deps: Sequence[int] = (),
        block: int = -1,
        peer_rank: int = -1,
        peer_block: int = -1,
        tag: int = -1,
    ) -> int:
        """Append a task; returns its id."""
        tid = len(self.tasks)
        self.tasks.append(
            Task(
                tid=tid,
                rank=rank,
                kind=kind,
                duration=duration,
                block=block,
                peer_rank=peer_rank,
                peer_block=peer_block,
                tag=tag,
            )
        )
        for d in deps:
            if not 0 <= d < tid:
                raise ValueError(f"dependency {d} of task {tid} does not exist yet")
        self.deps[tid] = list(deps)
        return tid

    def predecessors(self, tid: int) -> List[int]:
        return self.deps[tid]

    def match_sends_recvs(self) -> Dict[int, Tuple[int, int]]:
        """Map tag -> (send tid, recv tid); validates 1:1 matching."""
        sends: Dict[int, int] = {}
        recvs: Dict[int, int] = {}
        for t in self.tasks:
            if t.kind is TaskKind.SEND:
                if t.tag in sends:
                    raise ValueError(f"duplicate send tag {t.tag}")
                sends[t.tag] = t.tid
            elif t.kind is TaskKind.RECV:
                if t.tag in recvs:
                    raise ValueError(f"duplicate recv tag {t.tag}")
                recvs[t.tag] = t.tid
        if set(sends) != set(recvs):
            raise ValueError(
                f"unmatched tags: sends={sorted(set(sends) - set(recvs))} "
                f"recvs={sorted(set(recvs) - set(sends))}"
            )
        return {tag: (sends[tag], recvs[tag]) for tag in sends}

    def __len__(self) -> int:
        return len(self.tasks)


def build_exchange_graph(
    block_rank: np.ndarray,
    block_costs: np.ndarray,
    edges: np.ndarray,
    send_overhead: float = 0.0,
) -> TaskGraph:
    """Build the one-window DAG for a boundary exchange.

    Per block: COMPUTE, then one SEND per cross-rank neighbor (depending
    on the compute), and one RECV per cross-rank neighbor (consumed by
    the *next* window, so RECVs here depend on nothing and the window
    ends at a SYNC depending on all of the rank's tasks).  Single round
    of concurrent P2P between two sync points — the §IV-D setting.
    """
    block_rank = np.asarray(block_rank, dtype=np.int64)
    g = TaskGraph()
    compute_tid: Dict[int, int] = {}
    for b, (r, c) in enumerate(zip(block_rank, np.asarray(block_costs, dtype=np.float64))):
        compute_tid[b] = g.add(int(r), TaskKind.COMPUTE, duration=float(c), block=b)

    tag = 0
    rank_tasks: Dict[int, List[int]] = {}
    for b, tid in compute_tid.items():
        rank_tasks.setdefault(int(block_rank[b]), []).append(tid)
    for a, b in np.asarray(edges, dtype=np.int64):
        ra, rb = int(block_rank[a]), int(block_rank[b])
        if ra == rb:
            continue  # co-located: serviced by memcpy, no tasks
        for src_b, dst_b, rs, rd in ((int(a), int(b), ra, rb), (int(b), int(a), rb, ra)):
            s = g.add(
                rs, TaskKind.SEND, duration=send_overhead,
                deps=[compute_tid[src_b]], block=src_b,
                peer_rank=rd, peer_block=dst_b, tag=tag,
            )
            r = g.add(
                rd, TaskKind.RECV, block=dst_b,
                peer_rank=rs, peer_block=src_b, tag=tag,
            )
            rank_tasks.setdefault(rs, []).append(s)
            rank_tasks.setdefault(rd, []).append(r)
            tag += 1

    for rank, tids in sorted(rank_tasks.items()):
        g.add(rank, TaskKind.SYNC, deps=tids)
    return g


def rank_schedule(
    graph: TaskGraph, rank: int, send_priority: bool = True
) -> List[Task]:
    """Linearize one rank's tasks into an execution schedule.

    With ``send_priority``, each SEND is placed immediately after its
    last dependency, dispatching boundary data as early as possible.
    Without it, SENDs trail *all* of the rank's COMPUTE tasks — the
    untuned ordering of §IV-B, where a block's boundary data only
    dispatches after every other block's kernel has run.  (In the real
    runtime sends also queued behind wait-polling; the DES keeps waits
    after sends because a literal wait-before-send order would deadlock
    a blocking model — the cascade effect is modeled in the vectorized
    runtime instead.)  RECV (wait) tasks come last before SYNC so waits
    overlap as much as possible.
    """
    tasks = [t for t in graph.tasks if t.rank == rank]
    computes = [t for t in tasks if t.kind is TaskKind.COMPUTE]
    sends = [t for t in tasks if t.kind is TaskKind.SEND]
    recvs = [t for t in tasks if t.kind is TaskKind.RECV]
    syncs = [t for t in tasks if t.kind in (TaskKind.SYNC, TaskKind.FLUX)]

    if send_priority:
        # Interleave: after each compute, emit the sends that depend on it.
        by_dep: Dict[int, List[Task]] = {}
        for s in sends:
            dep = graph.predecessors(s.tid)[-1]
            by_dep.setdefault(dep, []).append(s)
        order: List[Task] = []
        for c in computes:
            order.append(c)
            order.extend(by_dep.pop(c.tid, []))
        # Sends whose dependency is off-rank or missing go last.
        for leftovers in by_dep.values():
            order.extend(leftovers)
        order.extend(recvs)
    else:
        order = computes + sends + recvs
    order.extend(syncs)
    return order
