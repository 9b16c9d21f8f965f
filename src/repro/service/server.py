"""``repro serve`` — the multi-tenant placement job service.

A line-delimited-JSON protocol over a local TCP socket: each request is
one JSON object on one line, each response one JSON object on one line.
Verbs (see ``docs/service.md`` for the full protocol):

* ``submit``  — queue an experiment: ``{"op": "submit", "kind":
  "sedov", "params": {...}, "tenant": "alice", "priority": 5}``.
  Admission control enforces per-tenant queue quotas; ``resume_of``
  continues a cancelled/interrupted job's journal bit-identically;
  ``idempotency_key`` makes retried submits return the existing job
  instead of double-running; ``deadline_s`` bounds the job's wall
  clock.
* ``status``  — one job's state + progress, or a tenant's aggregate
  (active/queued counts, pooled cache hit counters).
* ``events``  — incremental executor-event stream (``since`` cursor).
* ``query``   — run plan-engine SQL over a job's executor events, the
  same events ``events`` streams, running or finished.
* ``cancel``  — cooperative cancellation: queued jobs are withdrawn;
  running jobs get their cancel flag set and stop at the next epoch
  boundary, leaving a resumable journal.
* ``result``  — the finished job's rendered report text, digest, and
  exit code (``wait: true`` blocks until completion).
* ``ping`` / ``shutdown`` — liveness and orderly stop; ``{"op":
  "shutdown", "drain": true}`` checkpoints running jobs first (see
  below).

Durability: with ``--state DIR`` every lifecycle transition is written
through a crash-safe :class:`~repro.service.store.JobStore` *before*
it takes effect, and boot runs :func:`~repro.service.recovery.
recover_jobs` — queued jobs are re-admitted in order, mid-run jobs
resume their PR 6 sweep journals bit-identically, and a spec whose
executions have crashed the server ``--poison-threshold`` times is
quarantined as failed instead of crash-looping the pool.  A full queue
sheds lowest-priority-first: an arriving higher-priority submit evicts
the lowest queued job (which lands in state ``shed``), and a submit
that cannot displace anything gets a structured ``overloaded``
response with a ``retry_after_s`` hint.

Execution: jobs run in a thread pool (each job may itself fan out a
supervised *process* pool per its ``jobs`` parameter); every job gets a
private journal under the service root, a cancel flag file, and the
process-wide shared pattern cache.  A live job *is* its
:class:`~repro.service.store.JobRecord` plus in-memory state; its
executor events are appended on the event loop and written into the
record when the job finishes, so a restart reads them back from the
record.  Tenants share the on-disk trajectory cache, LRU-pruned after
every job.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import json
import os
import time
from pathlib import Path
from typing import Dict, List, Optional

from ..perf.supervisor import ExecutorEvent, SupervisorConfig, events_table
from .queue import AdmissionQueue, QueuedJob, QuotaConfig, QuotaExceeded
from .recovery import recover_jobs
from .runner import JobResult, JobRunner
from .spec import REGISTRY, JobSpec, spec_from_params
from .store import JobRecord, JobStore, spec_hash

__all__ = ["JobService", "ServiceConfig", "serve", "MAX_FRAME_BYTES"]

#: hard bound on one request line; longer frames get a structured error
#: and the connection resynchronizes at the next newline
MAX_FRAME_BYTES = 1 << 20


@dataclasses.dataclass(frozen=True)
class ServiceConfig:
    """One service instance's knobs (the ``repro serve`` flags)."""

    host: str = "127.0.0.1"
    port: int = 0                      #: 0 = ephemeral (printed at start)
    journal_root: str = ".repro-service"
    quotas: QuotaConfig = QuotaConfig()
    #: shared on-disk trajectory cache for every tenant (None = off)
    traj_cache: Optional[str] = None
    traj_cache_entries: int = 32       #: LRU budget, pruned after each job
    cancel_grace_s: float = 30.0
    #: durable job store + restart recovery root (None = in-memory only,
    #: the pre-durability behaviour)
    state_dir: Optional[str] = None
    #: default per-job wall-clock deadline (None = unbounded); a submit's
    #: own ``deadline_s`` overrides it
    default_deadline_s: Optional[float] = None
    #: server crashes per spec content-hash before the circuit breaker
    #: quarantines the spec as failed at recovery
    poison_threshold: int = 3


def _n_cells(spec: JobSpec) -> int:
    """Total cells a spec will execute (the progress denominator)."""
    c = spec.config
    if spec.kind == "sedov":
        return len(c.scales) * len(c.policies)
    if spec.kind == "scalebench":
        return len(c.scales) * len(c.distributions) * len(c.x_values)
    if spec.kind == "resilience":
        return 3 + (1 if c.check_determinism else 0)
    return 0


@dataclasses.dataclass
class _Job(JobRecord):
    """Server-side state of one submitted job: its durable record plus
    what exists only in memory."""

    spec: Optional[JobSpec] = None
    n_cells: int = 0
    #: set while a drain shutdown is checkpointing this job (its cancel
    #: is a *suspension*: the store keeps it queued for the next boot)
    draining: bool = False
    result: Optional[JobResult] = None
    done: asyncio.Event = dataclasses.field(default_factory=asyncio.Event)

    @property
    def cancel_file(self) -> str:
        return self.spec.supervise.cancel_path

    @property
    def completed_cells(self) -> int:
        return sum(
            1 for e in self.events if e.kind in ("complete", "resume_hit")
        )

    def status(self) -> Dict:
        out = {
            "job_id": self.job_id,
            "kind": self.kind,
            "tenant": self.tenant,
            "priority": self.priority,
            "state": self.state,
            "cells_total": self.n_cells,
            "cells_done": self.completed_cells,
            "n_events": len(self.events),
            "journal_dir": self.journal_dir,
        }
        if self.idempotency_key is not None:
            out["idempotency_key"] = self.idempotency_key
        if self.deadline_s is not None:
            out["deadline_s"] = self.deadline_s
        if self.crashes:
            out["crashes"] = self.crashes
        if self.error is not None:
            out["error"] = self.error
        if self.result is not None:
            out["exit_code"] = self.result.exit_code
            out["digest"] = self.result.digest
            out["cancelled"] = self.result.cancelled
            out["pattern_cache"] = dict(self.result.pattern_cache)
            out["traj_cache"] = dict(self.result.traj_cache)
        return out


class JobService:
    """The asyncio server plus its scheduler state."""

    def __init__(self, config: ServiceConfig = ServiceConfig()) -> None:
        self.config = config
        self.queue = AdmissionQueue(config.quotas)
        self.jobs: Dict[str, _Job] = {}
        self._ids = itertools.count(1)
        self._server: Optional[asyncio.AbstractServer] = None
        self._pool = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._closing = asyncio.Event()
        self._client_tasks: set = set()
        #: tenant → pooled cache counters over finished jobs
        self.tenant_caches: Dict[str, Dict[str, int]] = {}
        self.store: Optional[JobStore] = None
        self.recovery = None           #: the boot RecoveryPlan (or None)
        self._idempotency: Dict[str, str] = {}
        self._draining = False
        #: recent job wall times, for the overload Retry-After hint
        self._recent_s: List[float] = []

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        from concurrent.futures import ThreadPoolExecutor

        self._loop = asyncio.get_running_loop()
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.quotas.max_active,
            thread_name_prefix="repro-job",
        )
        Path(self.config.journal_root).mkdir(parents=True, exist_ok=True)
        if self.config.traj_cache is not None:
            from ..perf.trajcache import CACHE_ENV

            Path(self.config.traj_cache).mkdir(parents=True, exist_ok=True)
            os.environ[CACHE_ENV] = self.config.traj_cache
        if self.config.state_dir is not None:
            self.store = JobStore(self.config.state_dir)
            self._recover()
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port
        )
        self._pump()

    def _recover(self) -> None:
        """Replay the job store into live scheduler state (boot path)."""
        plan = recover_jobs(self.store, self.config.poison_threshold)
        self.recovery = plan
        self._ids = itertools.count(plan.max_seq + 1)
        for rec in plan.finished:
            job = self._new_job(rec, resume=True)
            if rec.state != "shed":
                # Digest/exit survive a restart; the rendered text does
                # not — the result verb says so instead of guessing.
                job.result = JobResult(
                    kind=rec.kind,
                    tenant=rec.tenant,
                    text="(result text not retained across a server "
                         "restart; digest and exit code are)",
                    exit_code=rec.exit_code if rec.exit_code is not None
                    else (1 if rec.state == "failed" else 0),
                    digest=rec.digest,
                    cancelled=rec.cancelled,
                )
            job.done.set()
            self.jobs[job.job_id] = job
        for rec in plan.requeue:
            job = self._new_job(rec, resume=True)
            # A cancel flag from the previous incarnation (killed while
            # *cancelling*) is transient intent, not durable state:
            # left in place it would insta-cancel the recovered run.
            # The durable record survived, so the job runs to done.
            try:
                os.unlink(job.cancel_file)
            except OSError:
                pass
            self.jobs[job.job_id] = job
            # Quotas were paid at the original submit: recovery
            # re-admission must never bounce surviving work.
            self.queue.readmit(
                QueuedJob(job_id=job.job_id, tenant=job.tenant,
                          priority=job.priority, payload=job)
            )
        for job in self.jobs.values():
            if job.idempotency_key:
                self._idempotency[job.idempotency_key] = job.job_id

    def _new_job(self, rec: JobRecord, resume: bool,
                 spec: Optional[JobSpec] = None) -> _Job:
        """The live job of ``rec``, fresh or recovered alike: it runs
        under its own journal, its cancel flag and the shared pattern
        store, which the supervisor hands to every cell.  Without
        ``spec`` the spec is rebuilt from the record's params through
        :func:`spec_from_params`, the path a fresh submit takes;
        ``resume`` makes an existing sweep journal replay instead of
        re-running."""
        if spec is None:
            # A record from before submits were checked may hold params
            # its kind never read: they were ignored then, and are here.
            known = REGISTRY[rec.kind].params
            spec = spec_from_params(
                rec.kind, {k: v for k, v in rec.params.items() if k in known},
                tenant=rec.tenant, priority=rec.priority, jobs=rec.jobs,
            )
        supervise = SupervisorConfig(
            journal_dir=rec.journal_dir,
            resume=resume,
            cancel_grace_s=self.config.cancel_grace_s,
            cancel_path=str(
                Path(self.config.journal_root) / f"{rec.job_id}.cancel"
            ),
            shared_pattern_store=True,
        )
        spec = dataclasses.replace(spec, supervise=supervise)
        return _Job(**vars(rec), spec=spec, n_cells=_n_cells(spec))

    @property
    def address(self) -> tuple:
        """(host, port) actually bound (resolves port 0)."""
        sock = self._server.sockets[0]
        return sock.getsockname()[:2]

    async def serve_forever(self) -> None:
        async with self._server:
            await self._closing.wait()

    async def close(self) -> None:
        self._closing.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Unstick handlers parked on read before the loop closes.
        for task in list(self._client_tasks):
            task.cancel()
        if self._client_tasks:
            await asyncio.gather(*self._client_tasks, return_exceptions=True)
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
        if self.store is not None:
            self.store.flush()

    # ------------------------------------------------------------------ #
    # protocol plumbing
    # ------------------------------------------------------------------ #

    async def _handle_client(self, reader, writer) -> None:
        """Connection loop with explicit framing.

        The loop must survive anything a client throws at it: malformed
        or truncated JSON, unknown ops, and frames past
        :data:`MAX_FRAME_BYTES` all produce a structured ``ok: false``
        response and leave the connection usable.  Oversized frames are
        discarded up to the next newline (one error per frame, however
        many reads it spans).
        """
        task = asyncio.current_task()
        self._client_tasks.add(task)
        buf = bytearray()
        discarding = False
        try:
            while True:
                chunk = await reader.read(65536)
                if not chunk:
                    break
                buf.extend(chunk)
                while True:
                    nl = buf.find(b"\n")
                    if nl < 0:
                        if len(buf) > MAX_FRAME_BYTES:
                            if not discarding:
                                discarding = True
                                writer.write(_encode({
                                    "ok": False,
                                    "error": f"frame exceeds "
                                             f"{MAX_FRAME_BYTES} bytes",
                                    "frame_too_large": True,
                                }))
                                await writer.drain()
                            buf.clear()
                        break
                    line = bytes(buf[:nl])
                    del buf[:nl + 1]
                    if discarding:
                        discarding = False   # tail of the oversized frame
                        continue
                    if len(line) > MAX_FRAME_BYTES:
                        # Complete line, but past the bound (it slipped
                        # under the mid-read check by arriving within
                        # one read of its newline).
                        writer.write(_encode({
                            "ok": False,
                            "error": f"frame exceeds "
                                     f"{MAX_FRAME_BYTES} bytes",
                            "frame_too_large": True,
                        }))
                        await writer.drain()
                        continue
                    response = await self._respond(line)
                    writer.write(_encode(response))
                    await writer.drain()
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            self._client_tasks.discard(task)
            try:
                writer.close()
            except Exception:
                pass

    async def _respond(self, line: bytes) -> Dict:
        """One frame in, one structured response out — never raises."""
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
            return await self._dispatch(request)
        except QuotaExceeded as exc:
            return {"ok": False, "error": str(exc), "quota": True}
        except json.JSONDecodeError as exc:
            return {"ok": False, "error": f"malformed JSON: {exc}",
                    "malformed": True}
        except (ValueError, KeyError, TypeError) as exc:
            return {"ok": False, "error": str(exc)}
        except Exception as exc:       # last-ditch: the loop stays alive
            return {
                "ok": False,
                "error": f"internal error: {type(exc).__name__}: {exc}",
                "internal": True,
            }

    async def _dispatch(self, request: Dict) -> Dict:
        op = request.get("op")
        handler = {
            "submit": self._op_submit,
            "status": self._op_status,
            "events": self._op_events,
            "query": self._op_query,
            "cancel": self._op_cancel,
            "result": self._op_result,
            "ping": self._op_ping,
            "shutdown": self._op_shutdown,
        }.get(op)
        if handler is None:
            raise ValueError(f"unknown op {op!r}")
        return await handler(request)

    def _job(self, request: Dict) -> _Job:
        job_id = request.get("job_id")
        if job_id not in self.jobs:
            raise KeyError(f"unknown job_id {job_id!r}")
        return self.jobs[job_id]

    def _persist(self, job: _Job, force: bool = False) -> None:
        """Write-through: the store sees every transition as it happens."""
        if self.store is not None:
            self.store.write(job, force=force)

    # ------------------------------------------------------------------ #
    # verbs
    # ------------------------------------------------------------------ #

    async def _op_ping(self, request: Dict) -> Dict:
        out = {
            "ok": True,
            "jobs": len(self.jobs),
            "active": self.queue.n_active,
            "queued": len(self.queue),
            "draining": self._draining,
        }
        if self.store is not None:
            out["state_dir"] = str(self.store.root)
        return out

    async def _op_shutdown(self, request: Dict) -> Dict:
        if request.get("drain"):
            return self._start_drain()
        self._loop.call_soon(self._closing.set)
        return {"ok": True}

    def _start_drain(self) -> Dict:
        """Graceful drain: stop admitting, checkpoint running jobs
        (cooperative cancel leaving resumable journals, re-queued in the
        store for the next boot), flush the store, then stop."""
        from ..perf.cancel import CancelToken

        self._draining = True
        running = [j for j in self.jobs.values() if j.state == "running"]
        for job in running:
            job.draining = True
            CancelToken(job.cancel_file).set()

        async def finish_drain():
            if running:
                grace = self.config.cancel_grace_s + 30.0
                await asyncio.wait(
                    [asyncio.ensure_future(j.done.wait()) for j in running],
                    timeout=grace,
                )
            if self.store is not None:
                self.store.flush()
            self._closing.set()

        self._loop.create_task(finish_drain())
        return {"ok": True, "draining": True, "checkpointing": len(running),
                "queued_kept": len(self.queue)}

    async def _op_submit(self, request: Dict) -> Dict:
        if self._draining:
            return {"ok": False, "error": "server is draining for shutdown",
                    "draining": True}
        kind = request.get("kind")
        params = dict(request.get("params") or {})
        tenant = str(request.get("tenant", "default"))
        priority = int(request.get("priority", 0))
        jobs = int(request.get("jobs", 1))
        resume_of = request.get("resume_of")
        idempotency_key = request.get("idempotency_key")
        deadline_s = request.get("deadline_s", self.config.default_deadline_s)
        if deadline_s is not None:
            deadline_s = float(deadline_s)
            if deadline_s <= 0:
                raise ValueError(f"deadline_s must be > 0, got {deadline_s}")

        # Idempotent submission: a retried submit (client reconnect, lost
        # ack) returns the job the first attempt created — never a twin.
        if idempotency_key is not None:
            existing_id = self._idempotency.get(str(idempotency_key))
            if existing_id is not None and existing_id in self.jobs:
                existing = self.jobs[existing_id]
                return {"ok": True, "job_id": existing_id,
                        "state": existing.state, "deduped": True}

        # Build the spec before anything can be shed: an invalid submit
        # (unknown kind, bad policy name) is rejected without displacing
        # a queued job.  The supervisor config needs the job id, which
        # is only allocated once the submit is admitted.
        spec = spec_from_params(
            kind, params, tenant=tenant, priority=priority, jobs=jobs
        )
        if resume_of is not None and resume_of not in self.jobs:
            raise KeyError(f"unknown resume_of job {resume_of!r}")

        shash = spec_hash(kind, params) if kind else ""
        if (
            self.store is not None
            and self.store.is_poisoned(shash, self.config.poison_threshold)
        ):
            return {
                "ok": False,
                "error": f"spec {shash[:12]}… is quarantined: it crashed "
                         f"the server {self.store.crash_count(shash)} "
                         f"time(s) (poison-spec circuit breaker)",
                "poisoned": True,
            }

        # Overload shedding on a full queue: an arriving higher-priority
        # submit displaces the lowest-priority queued job; otherwise the
        # submit is rejected with a structured overload response.
        if len(self.queue) >= self.config.quotas.max_queued:
            victim = self.queue.shed_lowest(below_priority=priority)
            if victim is None:
                return {
                    "ok": False,
                    "error": f"overloaded: queue full "
                             f"({self.config.quotas.max_queued} jobs)",
                    "overloaded": True,
                    "retry_after_s": self._retry_after_hint(),
                }
            self._shed(victim.payload)

        seq = next(self._ids)
        job_id = f"job-{seq:04d}"
        if resume_of is not None:
            journal_dir = self.jobs[resume_of].journal_dir
        else:
            journal_dir = str(Path(self.config.journal_root) / job_id)
        job = self._new_job(JobRecord(
            job_id=job_id, seq=seq, kind=kind, params=params, tenant=tenant,
            priority=priority, jobs=jobs, state="submitted",
            journal_dir=journal_dir, spec_hash=shash,
            idempotency_key=(
                str(idempotency_key) if idempotency_key is not None else None
            ),
            deadline_s=deadline_s, resume_of=resume_of,
        ), resume=resume_of is not None, spec=spec)
        # Admission first, then one write-ahead persist of the queued
        # state: the ack only ever promises "queued", so the transient
        # submitted->queued hop needs no fsync of its own, and a quota
        # rejection leaves no record to clean up.  A crash in between
        # loses only a job that was never acknowledged — the client's
        # idempotency-key retry recreates it.
        self.queue.submit(
            QueuedJob(
                job_id=job_id, tenant=tenant, priority=priority,
                payload=job,
            )
        )
        job.state = "queued"
        self._persist(job)
        self.jobs[job_id] = job
        if job.idempotency_key is not None:
            self._idempotency[job.idempotency_key] = job_id
        self._pump()
        return {"ok": True, "job_id": job_id, "state": job.state}

    def _shed(self, job: _Job) -> None:
        """Evict one queued job to admit a higher-priority submit."""
        job.state = "shed"
        job.error = (
            "shed: displaced from a full queue by a higher-priority submit"
        )
        self._persist(job)
        job.done.set()

    def _retry_after_hint(self) -> float:
        """Seconds until a slot plausibly frees: recent mean job time
        scaled by the backlog per execution slot (floor 1s, default 5s)."""
        if not self._recent_s:
            return 5.0
        mean_s = sum(self._recent_s) / len(self._recent_s)
        backlog = max(1.0, len(self.queue) / self.config.quotas.max_active)
        return round(max(1.0, mean_s * backlog), 1)

    async def _op_status(self, request: Dict) -> Dict:
        if "job_id" in request:
            return {"ok": True, "job": self._job(request).status()}
        tenant = request.get("tenant")
        if tenant is None:
            raise ValueError("status needs job_id or tenant")
        jobs = [
            j.status() for j in self.jobs.values() if j.tenant == tenant
        ]
        return {
            "ok": True,
            "tenant": tenant,
            "active": self.queue.active_for(tenant),
            "queued": self.queue.queued_for(tenant),
            "jobs": jobs,
            "cache": dict(self.tenant_caches.get(tenant, {})),
        }

    async def _op_events(self, request: Dict) -> Dict:
        job = self._job(request)
        since = int(request.get("since", 0))
        events = job.events[since:]
        return {
            "ok": True,
            "events": [dataclasses.asdict(e) for e in events],
            "next": since + len(events),
            "state": job.state,
        }

    async def _op_cancel(self, request: Dict) -> Dict:
        job = self._job(request)
        if job.state == "queued":
            self.queue.remove(job.job_id)
            job.state = "cancelled"
            self._persist(job)
            job.done.set()
            return {"ok": True, "state": job.state}
        if job.state == "running":
            from ..perf.cancel import CancelToken

            CancelToken(job.cancel_file).set()
            return {"ok": True, "state": "cancelling"}
        return {"ok": True, "state": job.state}

    async def _op_result(self, request: Dict) -> Dict:
        job = self._job(request)
        if not job.done.is_set() and request.get("wait"):
            timeout = request.get("timeout_s")
            try:
                await asyncio.wait_for(
                    job.done.wait(),
                    None if timeout is None else float(timeout),
                )
            except asyncio.TimeoutError:
                return {"ok": False, "error": "timeout", "state": job.state}
        if not job.done.is_set():
            return {"ok": False, "error": "job still running",
                    "state": job.state}
        out = {"ok": True, "state": job.state}
        if job.result is not None:
            out["result"] = job.result.to_wire()
        if job.error is not None:
            out["error"] = job.error
        return out

    async def _op_query(self, request: Dict) -> Dict:
        """Plan-engine SQL over the executor events the server holds for
        a job (the events ``events`` streams)."""
        from ..telemetry.query import sql_query

        job = self._job(request)
        statement = request.get("sql")
        if not statement:
            raise ValueError("query needs a 'sql' statement")
        table = sql_query(events_table(job.events), statement).run()
        return {
            "ok": True,
            "columns": {n: table[n].tolist() for n in table.names},
            "n_rows": table.n_rows,
            "state": job.state,
        }

    # ------------------------------------------------------------------ #
    # scheduling + execution
    # ------------------------------------------------------------------ #

    def _pump(self) -> None:
        """Start every eligible queued job (called on submit/finish)."""
        if self._draining:
            return
        while True:
            entry = self.queue.next_job()
            if entry is None:
                return
            job: _Job = entry.payload
            self.queue.mark_started(job.spec.tenant)
            job.state = "running"
            self._persist(job)
            deadline_ts = (
                time.time() + job.deadline_s
                if job.deadline_s is not None else None
            )
            t0 = time.monotonic()
            future = self._loop.run_in_executor(
                self._pool, self._run_job_sync, job, deadline_ts
            )
            future.add_done_callback(
                lambda f, job=job, t0=t0: self._loop.call_soon_threadsafe(
                    self._finish_job, job, f, t0
                )
            )

    def _run_job_sync(self, job: _Job, deadline_ts: Optional[float]) -> JobResult:
        """Worker-thread body: execute one spec under the runner."""
        spec = job.spec
        if deadline_ts is not None:
            spec = dataclasses.replace(spec, supervise=dataclasses.replace(
                spec.supervise, deadline_ts=deadline_ts,
            ))

        def on_event(ev: ExecutorEvent) -> None:
            self._loop.call_soon_threadsafe(job.events.append, ev)

        return JobRunner().run(spec, on_event=on_event)

    def _finish_job(self, job: _Job, future, t0: float) -> None:
        self.queue.mark_finished(job.spec.tenant)
        self._recent_s = (self._recent_s + [time.monotonic() - t0])[-8:]
        try:
            result = future.result()
        except Exception as exc:       # experiment raised: a failed job
            job.state = "failed"
            job.error = f"{type(exc).__name__}: {exc}"
            self._persist(job)
        else:
            job.result = result
            drained = (result.cancelled and job.draining
                       and not result.deadline_exceeded)
            if drained:
                # Drain checkpoint: in-memory the job ends cancelled,
                # but the store keeps it queued, with no result facts
                # and no events, so the next boot resumes its journal
                # bit-identically.
                job.state = "cancelled"
                if self.store is not None:
                    self.store.write(JobRecord.from_json(
                        dict(job.to_json(), state="queued", events=[])
                    ), force=True)
            else:
                job.digest = result.digest
                job.exit_code = result.exit_code
                job.cancelled = result.cancelled
                if result.deadline_exceeded:
                    job.state = "failed"
                    job.error = (
                        f"deadline_s={job.deadline_s:g} exceeded; "
                        "partial journal kept (resume_of continues it)"
                    )
                else:
                    job.state = "cancelled" if result.cancelled else "done"
                self._persist(job)
                if (
                    self.store is not None
                    and job.state == "done"
                    and job.spec_hash
                ):
                    # A clean completion closes the circuit breaker.
                    self.store.clear_poison(job.spec_hash)
            self._absorb_cache_counters(job.spec.tenant, result)
        try:
            os.unlink(job.cancel_file)
        except OSError:
            pass
        job.done.set()
        if self.config.traj_cache is not None:
            from ..perf.trajcache import prune_trajectory_cache

            self._loop.run_in_executor(
                self._pool,
                prune_trajectory_cache,
                self.config.traj_cache,
                self.config.traj_cache_entries,
            )
        self._pump()

    def _absorb_cache_counters(self, tenant: str, result: JobResult) -> None:
        pooled = self.tenant_caches.setdefault(
            tenant,
            {"pattern_hits": 0, "pattern_misses": 0,
             "traj_hits": 0, "traj_misses": 0},
        )
        pooled["pattern_hits"] += result.pattern_cache.get("hits", 0)
        pooled["pattern_misses"] += result.pattern_cache.get("misses", 0)
        pooled["traj_hits"] += result.traj_cache.get("hits", 0)
        pooled["traj_misses"] += result.traj_cache.get("misses", 0)


def _encode(response: Dict) -> bytes:
    return json.dumps(response).encode() + b"\n"


async def serve(config: ServiceConfig, ready=None) -> int:
    """Run a service until ``shutdown`` (the ``repro serve`` body)."""
    service = JobService(config)
    await service.start()
    host, port = service.address
    print(f"repro service listening on {host}:{port}")
    print(f"journal root: {config.journal_root}")
    if config.state_dir is not None:
        print(f"state dir: {config.state_dir} (durable job store)")
        if service.recovery is not None:
            for line in service.recovery.summary_lines():
                print(line)
    if config.traj_cache is not None:
        print(f"trajectory cache: {config.traj_cache}")
    print(f"quotas: {config.quotas.max_active} active "
          f"({config.quotas.max_active_per_tenant}/tenant), "
          f"{config.quotas.max_queued} queued "
          f"({config.quotas.max_queued_per_tenant}/tenant)", flush=True)
    if ready is not None:
        ready(service)
    try:
        await service.serve_forever()
    finally:
        await service.close()
    return 0
