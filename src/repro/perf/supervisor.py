"""Supervised worker-pool sweep execution: crash recovery, timeouts,
retries, quarantine, and resumable journaling.

A bare process pool dies with its weakest worker: one OOM-killed
process, one hung cell, or one flaky exception aborts an entire
multi-hour sweep with nothing salvaged.  This module replaces it with
a *supervised* pool that treats sweep cells the way the resilience
layer (PR 1) treats cluster nodes — detect, mitigate, continue:

* **worker death** (SIGKILL / OOM — the ``BrokenProcessPool`` class of
  failure): the supervisor respawns the worker and retries the cell
  with exponential backoff under a per-cell retry budget;
* **hung cells**: a per-cell wall-clock timeout; on expiry the worker
  is killed (SIGKILL) and the cell retried under the same budget;
* **poison cells**: when the budget is exhausted the cell is
  **quarantined** — the sweep continues and the cell's slot in the
  ordered result list carries a structured :class:`CellFailure` record
  instead of aborting everything (graceful degradation);
* **interruption**: with a journal configured (:mod:`repro.perf.
  journal`), every completed cell is durably recorded the moment it
  finishes; Ctrl-C or ``kill -9`` of the parent leaves a valid journal
  that ``resume=True`` replays, re-executing only the unfinished cells.

Determinism contract — identical to the bare executor: results merge in
submission order, and because every cell derives all randomness from
seeds in its item, a retried / resumed / rescheduled cell is
bit-identical to its serial execution.  Supervision changes *which
host process* computes a result and *when*, never the result.

Executor events (retries, crashes, timeouts, quarantines, resume hits)
are structured records, surfaced as counters and handed back on the
report; each front end keeps them in its own store (the service in the
job's record, the CLI beside its journal: :mod:`repro.service.runner`).

Fault-injection harness: the ``REPRO_CHAOS`` environment variable marks
designated cells to ``crash`` (hard ``os._exit``), ``hang`` (sleep
forever), or be ``flaky`` (raise), optionally only for the first *n*
attempts — see :func:`parse_chaos_spec`.  The chaos hook runs inside
the worker, so it exercises exactly the supervision paths production
faults would.
"""

from __future__ import annotations

import contextvars
import dataclasses
import heapq
import os
import queue
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, TypeVar

from .cancel import DeadlineExceeded, JobCancelled, maybe_token
from .executor import CellExecutionError, effective_jobs
from .journal import SweepJournal, sweep_key

__all__ = [
    "CHAOS_ENV",
    "STRICT",
    "SWEEP_CONFIG",
    "CellFailure",
    "EVENT_CODES",
    "ExecutorEvent",
    "SupervisedReport",
    "SupervisorConfig",
    "parse_chaos_spec",
    "supervised_map",
]

T = TypeVar("T")

#: chaos-injection spec, e.g. ``"crash:3;hang:5;flaky:7@2"``
CHAOS_ENV = "REPRO_CHAOS"

#: integer codes for the telemetry events table (strings are not a
#: columnar type; keep in sync with docs/resilience.md)
EVENT_CODES: Dict[str, int] = {
    "complete": 0,
    "crash": 1,
    "timeout": 2,
    "error": 3,
    "retry": 4,
    "quarantine": 5,
    "resume_hit": 6,
    "cancel": 7,
}


#: supervisor wake-up period for liveness, cancel and deadline checks
POLL_INTERVAL_S = 0.05
#: exponential backoff before attempt k+1: ``BACKOFF_BASE_S * 2**(k-1)``,
#: capped at :data:`BACKOFF_MAX_S`
BACKOFF_BASE_S = 0.05
BACKOFF_MAX_S = 2.0


@dataclasses.dataclass(frozen=True)
class SupervisorConfig:
    """Fault-handling knobs for one supervised sweep."""

    #: per-cell retry budget: a cell runs at most ``retries + 1`` times
    retries: int = 2
    #: per-cell wall-clock timeout (None = never time out).  Enforced by
    #: killing the worker, so it holds even for cells stuck in C code.
    timeout_s: Optional[float] = None
    #: journal root directory (None = no journal, no resume)
    journal_dir: Optional[str] = None
    #: replay completed cells from the journal instead of re-running them
    resume: bool = False
    #: raise :class:`CellExecutionError` on the first exhausted cell
    #: instead of quarantining it (see :data:`STRICT`)
    strict: bool = False
    #: cooperative-cancel flag file (see :mod:`repro.perf.cancel`); the
    #: supervisor polls it every wake-up and the engine's
    #: CancellationHook polls the same file inside worker processes
    cancel_path: Optional[str] = None
    #: after a cancel, in-flight cells get this long to reach their next
    #: epoch boundary before their workers are killed
    cancel_grace_s: float = 30.0
    #: absolute wall-clock deadline (``time.time()`` epoch seconds); the
    #: supervisor checks it every wake-up (and the engine's
    #: CancellationHook checks it inside worker processes), stopping the
    #: sweep with :class:`~repro.perf.cancel.DeadlineExceeded` — same
    #: drain + resumable-journal semantics as a cancel
    deadline_ts: Optional[float] = None
    #: engine runs inside this sweep's cells look exchange patterns up in
    #: the process-wide :class:`~repro.perf.cache.SharedPatternCache`
    #: (the service mode, where concurrent jobs pool one store)
    shared_pattern_store: bool = False

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be > 0, got {self.timeout_s}")
        if self.resume and self.journal_dir is None:
            raise ValueError("resume=True requires journal_dir")
        if self.cancel_grace_s <= 0:
            raise ValueError(
                f"cancel_grace_s must be > 0, got {self.cancel_grace_s}"
            )


#: The config of a sweep run without requested supervision: one attempt
#: per cell, and the first failing cell raises :class:`CellExecutionError`.
STRICT = SupervisorConfig(retries=0, strict=True)

#: The config of the sweep whose cell is running in this context (None
#: outside any cell).  This is how a job's controls reach the engine:
#: :class:`~repro.engine.EpochEngine` reads ``cancel_path``,
#: ``deadline_ts`` and ``shared_pattern_store`` from it, whatever the
#: experiment, serial or in a pool worker.
SWEEP_CONFIG: contextvars.ContextVar[Optional[SupervisorConfig]] = (
    contextvars.ContextVar("repro_sweep_config", default=None)
)


@dataclasses.dataclass(frozen=True)
class CellFailure:
    """A quarantined cell: the structured record that replaces an abort."""

    index: int
    item_repr: str
    kind: str          #: terminal failure class: 'crash' | 'timeout' | 'error'
    attempts: int      #: executions consumed (== retries + 1)
    error: str         #: detail of the last attempt

    def __str__(self) -> str:
        return (
            f"cell {self.index} quarantined after {self.attempts} "
            f"attempt(s) [{self.kind}]: {self.error}"
        )


@dataclasses.dataclass(frozen=True)
class ExecutorEvent:
    """One supervision event (also a telemetry-table row)."""

    t_s: float         #: host seconds since sweep start
    cell: int
    kind: str          #: a key of :data:`EVENT_CODES`
    attempt: int
    detail: str = ""

    @property
    def code(self) -> int:
        return EVENT_CODES[self.kind]


def events_table(events: Sequence[ExecutorEvent]):
    """Executor events as a five-column
    :class:`~repro.telemetry.columnar.ColumnTable`; ``event`` ids count
    from 0 in recording order."""
    import numpy as np

    from ..telemetry.columnar import ColumnTable

    return ColumnTable(
        {
            "event": np.arange(len(events), dtype=np.int64),
            "cell": np.asarray([e.cell for e in events], dtype=np.int64),
            "kind": np.asarray([e.code for e in events], dtype=np.int64),
            "attempt": np.asarray([e.attempt for e in events], dtype=np.int64),
            "t_s": np.asarray([e.t_s for e in events], dtype=np.float64),
        }
    )


@dataclasses.dataclass
class SupervisedReport:
    """Ordered results plus the supervision record of one sweep."""

    #: ``results[i]`` is ``fn(items[i])`` or a :class:`CellFailure`
    results: List[object]
    events: List[ExecutorEvent]
    counters: Dict[str, int]
    journal_path: Optional[Path] = None

    @property
    def failures(self) -> List[CellFailure]:
        return [r for r in self.results if isinstance(r, CellFailure)]

    def summary_line(self) -> str:
        c = self.counters
        return (
            f"executor: {c['n_cells']} cells — {c['n_executed']} executed, "
            f"{c['n_resume_hits']} resumed, {c['n_retries']} retries, "
            f"{c['n_crashes']} crashes, {c['n_timeouts']} timeouts, "
            f"{c['n_errors']} errors, {c['n_quarantined']} quarantined"
        )


# ---------------------------------------------------------------------- #
# chaos injection (the fault harness)
# ---------------------------------------------------------------------- #

@dataclasses.dataclass(frozen=True)
class _ChaosRule:
    kind: str          #: 'crash' | 'hang' | 'flaky'
    cell: int
    max_attempt: Optional[int]   #: inject while attempt <= this (None = always)

    def applies(self, cell: int, attempt: int) -> bool:
        if cell != self.cell:
            return False
        return self.max_attempt is None or attempt <= self.max_attempt


def parse_chaos_spec(spec: str) -> List[_ChaosRule]:
    """Parse a ``REPRO_CHAOS`` spec: ``kind:cell[@n]`` entries joined by
    ``;``.  ``crash:3`` makes cell 3 die (SIGKILL-style ``os._exit``) on
    every attempt (a poison cell); ``crash:3@1`` only on attempt 1 (a
    one-shot fault the retry recovers from); ``hang:5`` sleeps forever
    (exercises the timeout/kill path); ``flaky:7@2`` raises on attempts
    1–2 and succeeds from attempt 3.
    """
    rules: List[_ChaosRule] = []
    for entry in spec.split(";"):
        entry = entry.strip()
        if not entry:
            continue
        try:
            kind, rest = entry.split(":", 1)
            if "@" in rest:
                cell_s, max_s = rest.split("@", 1)
                max_attempt: Optional[int] = int(max_s)
            else:
                cell_s, max_attempt = rest, None
            cell = int(cell_s)
        except ValueError as exc:
            raise ValueError(
                f"bad {CHAOS_ENV} entry {entry!r} (want kind:cell[@n])"
            ) from exc
        if kind not in ("crash", "hang", "flaky"):
            raise ValueError(
                f"bad {CHAOS_ENV} kind {kind!r} (want crash|hang|flaky)"
            )
        rules.append(_ChaosRule(kind=kind, cell=cell, max_attempt=max_attempt))
    return rules


class ChaosError(RuntimeError):
    """The injected 'flaky' failure."""


def _maybe_inject_chaos(cell: int, attempt: int) -> None:
    """Runs inside the worker, before the cell function."""
    spec = os.environ.get(CHAOS_ENV)
    if not spec:
        return
    for rule in parse_chaos_spec(spec):
        if not rule.applies(cell, attempt):
            continue
        if rule.kind == "crash":
            os._exit(137)              # an OOM-kill / SIGKILL stand-in
        elif rule.kind == "hang":
            while True:                # parked until the supervisor kills us
                time.sleep(3600)
        else:
            raise ChaosError(
                f"injected flaky failure (cell {cell}, attempt {attempt})"
            )


# ---------------------------------------------------------------------- #
# worker side
# ---------------------------------------------------------------------- #

_OK, _ERR = 0, 1


def _worker_main(fn, task_q, conn, config: SupervisorConfig) -> None:
    """Worker loop: one task at a time, result or error back on the pipe.

    Results travel over a pipe *private to this worker* rather than a
    shared queue.  A shared ``mp.Queue`` hides a non-robust semaphore:
    a worker SIGKILLed in the window where its feeder thread has
    written the payload but not yet released the queue's write-lock
    leaves that lock held forever, deadlocking every surviving writer.
    With one pipe per worker there is no cross-process lock at all, and
    a dead worker can corrupt only its own (discarded) channel — the
    supervisor even reads the EOF as an immediate death signal.

    SIGINT is ignored so a terminal Ctrl-C reaches only the supervisor,
    which then owns the shutdown (and the journal cleanup).  The loop
    also watches its parent pid: if the supervisor is SIGKILLed, workers
    exit on their own instead of lingering as orphans.
    """
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    SWEEP_CONFIG.set(config)
    parent = os.getppid()
    while True:
        try:
            msg = task_q.get(timeout=1.0)
        except queue.Empty:
            if os.getppid() != parent:
                return                 # supervisor died; don't orphan
            continue
        except (EOFError, OSError):
            return
        if msg is None:
            return
        index, attempt, item = msg
        try:
            _maybe_inject_chaos(index, attempt)
            result = fn(item)
            payload = (index, attempt, _OK, result)
        except Exception as exc:
            payload = (index, attempt, _ERR, f"{type(exc).__name__}: {exc}")
        try:
            conn.send(payload)
        except Exception as exc:       # e.g. unpicklable result object
            conn.send(
                (index, attempt, _ERR, f"unreturnable result: {exc!r}")
            )


class _Worker:
    """One supervised worker process, its private task queue, and its
    private result pipe (see :func:`_worker_main` for why the result
    channel must not be shared)."""

    def __init__(self, ctx, fn, config: SupervisorConfig) -> None:
        self.task_q = ctx.Queue()
        self.conn, send_conn = ctx.Pipe(duplex=False)
        self.proc = ctx.Process(
            target=_worker_main, args=(fn, self.task_q, send_conn, config),
            daemon=True,
        )
        self.proc.start()
        # Drop the parent's copy of the send end so the worker's death
        # surfaces as EOF on ``self.conn``.
        send_conn.close()
        self.cell: Optional[int] = None
        self.attempt: int = 0
        self.deadline: Optional[float] = None

    @property
    def busy(self) -> bool:
        return self.cell is not None

    def assign(self, index: int, attempt: int, item, timeout_s) -> None:
        self.cell, self.attempt = index, attempt
        self.deadline = (
            time.monotonic() + timeout_s if timeout_s is not None else None
        )
        self.task_q.put((index, attempt, item))

    def release(self) -> None:
        self.cell, self.attempt, self.deadline = None, 0, None

    def kill(self) -> None:
        if self.proc.is_alive():
            self.proc.kill()
        self.proc.join(timeout=5.0)
        self.task_q.cancel_join_thread()
        self.task_q.close()
        try:
            self.conn.close()
        except OSError:
            pass

    def stop(self) -> None:
        """Graceful shutdown: sentinel, short join, then kill."""
        try:
            self.task_q.put(None)
        except Exception:
            pass
        self.proc.join(timeout=1.0)
        self.kill()


# ---------------------------------------------------------------------- #
# supervisor side
# ---------------------------------------------------------------------- #

class _Supervision:
    """Shared bookkeeping for one supervised sweep (pool or serial)."""

    def __init__(self, cells: Sequence, config: SupervisorConfig,
                 journal: Optional[SweepJournal],
                 on_event: Optional[Callable[[ExecutorEvent], None]] = None,
                 ) -> None:
        self.cells = cells
        self.config = config
        self.journal = journal
        self.on_event = on_event
        self.t0 = time.monotonic()
        self.results: Dict[int, object] = {}
        self.attempts: Dict[int, int] = {}
        self.events: List[ExecutorEvent] = []
        self.cancelled = False
        self.deadline_hit = False      #: the cancel was the deadline clock
        self.n_retries = 0
        self.n_crashes = 0
        self.n_timeouts = 0
        self.n_errors = 0
        self.n_resume_hits = 0
        self.n_executed = 0

    def event(self, cell: int, kind: str, attempt: int, detail: str = "") -> None:
        ev = ExecutorEvent(
            t_s=time.monotonic() - self.t0, cell=cell, kind=kind,
            attempt=attempt, detail=detail,
        )
        self.events.append(ev)
        if self.on_event is not None:
            try:
                self.on_event(ev)
            except Exception:
                pass               # progress streaming must never fail the sweep

    def resume_from_journal(self) -> None:
        if self.journal is None or not self.config.resume:
            return
        for index, result in self.journal.completed().items():
            self.results[index] = result
            self.n_resume_hits += 1
            self.event(index, "resume_hit", 0)

    def complete(self, index: int, result: object) -> None:
        self.results[index] = result
        self.n_executed += 1
        self.event(index, "complete", self.attempts[index])
        if self.journal is not None:
            self.journal.record(index, result)

    def cancel(self, cell: int, detail: str = "",
               deadline: bool = False) -> None:
        """Record the cancel and raise :class:`JobCancelled` (or
        :class:`DeadlineExceeded` when the deadline clock fired)."""
        self.cancelled = True
        self.deadline_hit = self.deadline_hit or deadline
        self.event(cell, "cancel", self.attempts.get(cell, 0), detail)
        raise self.cancel_exc()

    def cancel_exc(self) -> JobCancelled:
        label = (
            "sweep deadline exceeded" if self.deadline_hit
            else "sweep cancelled"
        )
        cls = DeadlineExceeded if self.deadline_hit else JobCancelled
        return cls(
            f"{label}: {len(self.results)}/{len(self.cells)} "
            f"cells completed"
        )

    def deadline_passed(self) -> bool:
        return (
            self.config.deadline_ts is not None
            and time.time() > self.config.deadline_ts
        )

    def backoff_s(self, attempt: int) -> float:
        return min(
            BACKOFF_BASE_S * (2 ** max(attempt - 1, 0)),
            BACKOFF_MAX_S,
        )

    def fail_attempt(self, index: int, kind: str, detail: str) -> Optional[float]:
        """Register a failed attempt.  Returns the backoff delay before
        the retry, or ``None`` when the budget is exhausted (the cell is
        then quarantined — or raised, in strict mode)."""
        attempt = self.attempts[index]
        counter = {"crash": "n_crashes", "timeout": "n_timeouts",
                   "error": "n_errors"}[kind]
        setattr(self, counter, getattr(self, counter) + 1)
        self.event(index, kind, attempt, detail)
        if attempt <= self.config.retries:
            self.n_retries += 1
            self.event(index, "retry", attempt, detail)
            return self.backoff_s(attempt)
        failure = CellFailure(
            index=index,
            item_repr=repr(self.cells[index])[:300],
            kind=kind,
            attempts=attempt,
            error=detail,
        )
        self.event(index, "quarantine", attempt, detail)
        if self.config.strict:
            raise CellExecutionError(index, self.cells[index], detail)
        self.results[index] = failure
        return None

    def report(self) -> SupervisedReport:
        """The sweep report.  After a cancel, unfinished cells' slots are
        ``None`` (a *partial* report — carried on the raised exception)."""
        counters = {
            "n_cells": len(self.cells),
            "n_executed": self.n_executed,
            "n_resume_hits": self.n_resume_hits,
            "n_retries": self.n_retries,
            "n_crashes": self.n_crashes,
            "n_timeouts": self.n_timeouts,
            "n_errors": self.n_errors,
            "n_quarantined": sum(
                1 for r in self.results.values() if isinstance(r, CellFailure)
            ),
            "n_cancelled": (
                len(self.cells) - len(self.results) if self.cancelled else 0
            ),
        }
        return SupervisedReport(
            results=[self.results.get(i) for i in range(len(self.cells))],
            events=self.events,
            counters=counters,
            journal_path=self.journal.dir if self.journal is not None else None,
        )


def _run_serial(fn, sup: _Supervision) -> None:
    """In-process supervised loop (``jobs <= 1`` and no timeout).

    Exceptions are retried/quarantined like in the pool; chaos 'crash'
    and 'hang' behave like an unsupervised serial run would (the parent
    *is* the worker), which is why the pool path is forced whenever a
    timeout is configured.
    """
    token = maybe_token(sup.config.cancel_path)
    for index, item in enumerate(sup.cells):
        if index in sup.results:
            continue
        while True:
            if token is not None and token.is_set():
                sup.cancel(index, "cancel flag set before cell start")
            if sup.deadline_passed():
                sup.cancel(index, "deadline passed before cell start",
                           deadline=True)
            sup.attempts[index] = sup.attempts.get(index, 0) + 1
            # Job threads of the server are reused: the config is reset
            # after every cell so it never leaks into the next job.
            scope = SWEEP_CONFIG.set(sup.config)
            try:
                _maybe_inject_chaos(index, sup.attempts[index])
                result = fn(item)
            except JobCancelled as exc:
                # The engine's CancellationHook fired mid-cell; never
                # retried — a set flag would just re-cancel the retry.
                sup.cancel(index, str(exc),
                           deadline=isinstance(exc, DeadlineExceeded))
            except Exception as exc:
                delay = sup.fail_attempt(
                    index, "error", f"{type(exc).__name__}: {exc}"
                )
                if delay is None:
                    break
                time.sleep(delay)
                continue
            finally:
                SWEEP_CONFIG.reset(scope)
            sup.complete(index, result)
            break


def _run_pool(fn, sup: _Supervision, n_jobs: int) -> None:
    """The supervised worker pool proper."""
    import multiprocessing as mp
    from multiprocessing import connection as mp_connection

    cfg = sup.config
    token = maybe_token(cfg.cancel_path)
    ctx = mp.get_context()
    n_workers = min(n_jobs, max(len(sup.cells) - len(sup.results), 1))
    workers: List[_Worker] = []
    #: min-heap of (ready_at, index) for cells awaiting (re)dispatch
    pending: List = []
    for index in range(len(sup.cells)):
        if index not in sup.results:
            heapq.heappush(pending, (0.0, index))
    if not pending:
        return
    inflight: Dict[int, _Worker] = {}

    def respawn(worker: _Worker) -> _Worker:
        worker.kill()
        workers.remove(worker)
        fresh = _Worker(ctx, fn, cfg)
        workers.append(fresh)
        return fresh

    def handle_failure(worker: _Worker, kind: str, detail: str) -> None:
        index = worker.cell
        inflight.pop(index, None)
        delay = sup.fail_attempt(index, kind, detail)
        if delay is not None:
            heapq.heappush(pending, (time.monotonic() + delay, index))

    try:
        workers.extend(_Worker(ctx, fn, cfg) for _ in range(n_workers))
        while len(sup.results) < len(sup.cells):
            now = time.monotonic()
            # Cooperative cancel: stop dispatching, drop the backlog, and
            # give in-flight cells a bounded grace to reach their next
            # epoch boundary (the in-worker CancellationHook polls the
            # same flag file and the same deadline clock), then kill
            # what remains.
            if not sup.cancelled and (
                (token is not None and token.is_set())
                or sup.deadline_passed()
            ):
                sup.cancelled = True
                sup.deadline_hit = sup.deadline_passed() and not (
                    token is not None and token.is_set()
                )
                reason = (
                    "deadline exceeded" if sup.deadline_hit
                    else "cancel requested"
                )
                sup.event(
                    -1, "cancel", 0,
                    f"{reason}; draining {len(inflight)} in-flight "
                    f"cell(s), {len(pending)} pending dropped",
                )
                pending.clear()
                grace = now + cfg.cancel_grace_s
                for w in workers:
                    if w.busy and (w.deadline is None or w.deadline > grace):
                        w.deadline = grace
            if sup.cancelled and not any(w.busy for w in workers):
                break
            # dispatch ready cells onto idle, live workers (snapshot:
            # respawn mutates the worker list)
            for worker in list(workers):
                if worker.busy or not pending or pending[0][0] > now:
                    continue
                if not worker.proc.is_alive():
                    worker = respawn(worker)
                _, index = heapq.heappop(pending)
                sup.attempts[index] = sup.attempts.get(index, 0) + 1
                worker.assign(
                    index, sup.attempts[index], sup.cells[index], cfg.timeout_s
                )
                inflight[index] = worker

            # Wait for results on the busy workers' private pipes,
            # bounded by the next backoff expiry.  Cells that are ready
            # *now* don't shorten the wait: they are only waiting for a
            # worker, and a worker only frees up via a pipe we are
            # already waiting on (a dead worker's EOF wakes us too).
            wait = POLL_INTERVAL_S
            if pending and pending[0][0] > now:
                wait = min(wait, pending[0][0] - now)
            busy = [w for w in workers if w.busy]
            ready = (
                mp_connection.wait([w.conn for w in busy], timeout=wait)
                if busy
                else []
            )
            if not busy:
                time.sleep(wait)
            by_conn = {w.conn: w for w in busy}
            for conn in ready:
                worker = by_conn[conn]
                try:
                    index, attempt, status, payload = conn.recv()
                except (EOFError, OSError):
                    # Worker died; fold into the liveness pass below
                    # (exitcode isn't reliably set yet).
                    continue
                if inflight.get(index) is worker and worker.attempt == attempt:
                    inflight.pop(index)
                    worker.release()
                    if status == _OK:
                        sup.complete(index, payload)
                    elif sup.cancelled:
                        # No retries after a cancel; a JobCancelled
                        # raised by the in-worker hook lands here too.
                        sup.event(
                            index, "cancel", attempt,
                            f"abandoned after cancel: {payload}",
                        )
                    elif str(payload).startswith("DeadlineExceeded"):
                        # The in-worker deadline clock fired a wake-up
                        # before the supervisor's own check; same
                        # verdict, never a retryable error (the retry
                        # would just re-expire).
                        sup.event(
                            index, "cancel", attempt,
                            f"deadline exceeded in worker: {payload}",
                        )
                    else:
                        delay = sup.fail_attempt(index, "error", payload)
                        if delay is not None:
                            heapq.heappush(
                                pending, (time.monotonic() + delay, index)
                            )
                # else: stale result from an attempt we already killed

            # liveness + deadline supervision
            now = time.monotonic()
            for worker in list(workers):
                if not worker.busy:
                    continue
                if sup.cancelled and (
                    not worker.proc.is_alive()
                    or (worker.deadline is not None and now > worker.deadline)
                ):
                    # Grace expired (or the worker died) during the
                    # cancel drain: record, kill, and don't respawn.
                    index = worker.cell
                    inflight.pop(index, None)
                    sup.event(
                        index, "cancel", worker.attempt,
                        "worker killed at cancel grace deadline"
                        if worker.proc.is_alive()
                        else "worker died during cancel drain",
                    )
                    worker.kill()
                    workers.remove(worker)
                elif not worker.proc.is_alive():
                    code = worker.proc.exitcode
                    attempt = worker.attempt
                    w = worker
                    handle_failure(
                        w, "crash",
                        f"worker died (exit code {code}) on attempt {attempt}",
                    )
                    respawn(w)
                elif worker.deadline is not None and now > worker.deadline:
                    attempt = worker.attempt
                    w = worker
                    handle_failure(
                        w, "timeout",
                        f"cell exceeded {cfg.timeout_s:g}s wall-clock "
                        f"timeout on attempt {attempt} (worker killed)",
                    )
                    respawn(w)
        if sup.cancelled:
            raise sup.cancel_exc()
    finally:
        for worker in workers:
            worker.stop()


def supervised_map(
    fn: Callable[[T], object],
    items: Iterable[T],
    jobs: Optional[int] = 1,
    config: Optional[SupervisorConfig] = None,
    on_event: Optional[Callable[[ExecutorEvent], None]] = None,
) -> SupervisedReport:
    """Map ``fn`` over ``items`` under supervision; ordered merge.

    Returns a :class:`SupervisedReport` whose ``results[i]`` is
    ``fn(items[i])`` for every cell that succeeded (bit-identical to the
    serial run) and a :class:`CellFailure` for every quarantined cell.
    With ``config.journal_dir`` set, completed cells are durably
    journaled as they finish and ``config.resume=True`` replays them.
    While a cell runs, :data:`SWEEP_CONFIG` holds ``config`` (in the
    serial loop and in every pool worker alike), so the engine runs
    inside the cell see the sweep's cancel flag, deadline and pattern
    store setting.

    The worker pool is used when ``jobs > 1`` *or* a timeout is
    configured (timeout enforcement needs a killable worker even for a
    single job); otherwise the supervised loop runs in-process.

    ``on_event`` is called synchronously with every
    :class:`ExecutorEvent` as it is recorded (live progress streaming);
    callbacks must be cheap and must not raise.  With
    ``config.cancel_path`` set, the sweep stops cooperatively when that
    flag file appears: pending cells are dropped, in-flight cells get
    ``config.cancel_grace_s`` to reach an epoch boundary, completed
    cells stay journaled, and :class:`~repro.perf.cancel.JobCancelled`
    is raised.  Every exception the sweep propagates (a cancel, Ctrl-C,
    a strict-mode failure) carries the partial report on ``.report``.
    """
    cells = list(items)
    cfg = config if config is not None else SupervisorConfig()
    n_jobs = effective_jobs(jobs, len(cells))

    journal: Optional[SweepJournal] = None
    if cfg.journal_dir is not None:
        journal = SweepJournal(
            cfg.journal_dir, sweep_key(fn, cells), len(cells),
            fn_name=f"{getattr(fn, '__module__', '?')}."
                    f"{getattr(fn, '__qualname__', '?')}",
            resume=cfg.resume,
        )

    sup = _Supervision(cells, cfg, journal, on_event=on_event)
    sup.resume_from_journal()
    use_pool = len(sup.results) < len(cells) and (
        n_jobs > 1 or cfg.timeout_s is not None
    )
    try:
        if len(sup.results) < len(cells):
            if use_pool:
                _run_pool(fn, sup, n_jobs)
            else:
                _run_serial(fn, sup)
    except BaseException as exc:
        # Cancel, Ctrl-C or a strict-mode failure: completed cells stay
        # journaled (resumable); hand the caller the partial report.
        if journal is not None:
            journal.cleanup_tmp()
        exc.report = sup.report()
        raise
    return sup.report()
