"""Restart recovery: rebuild a job service from its on-disk store.

On ``repro serve --state DIR`` boot the server replays the
:class:`~repro.service.store.JobStore` into live scheduler state, so a
crash or restart loses no tenant's work:

* **torn records** (CRC failure) are quarantined as ``*.torn`` files
  and reported — never trusted, never silently dropped from the count;
* **terminal records** (done/failed/cancelled/shed) are rehydrated as
  finished jobs: their digests, exit codes, errors and executor events
  stay queryable through ``status``/``result``/``events``/``query``
  (the rendered text is the one thing not retained across a restart);
* **submitted/queued records** are re-admitted to the
  :class:`~repro.service.queue.AdmissionQueue` in original submission
  order (the queue's priority rule then re-derives the same dispatch
  order a never-restarted server would have used) — quota checks were
  already paid at the original submit, so re-admission bypasses them;
* **running records** are the crash evidence: the server died mid-job.
  Each one charges a crash against its spec's content hash in the
  poison ledger, then is re-queued with ``resume=True`` so the PR 6
  sweep journal replays every completed cell and the finished job's
  digest is bit-identical to an uninterrupted run.  A spec hash that
  has now crashed the server ``poison_threshold`` times is instead
  **quarantined as failed** — the circuit breaker that keeps one
  poisonous submit from crash-looping the service forever (the serving
  analogue of the supervisor's ``CellFailure`` quarantine).

The module is deliberately server-agnostic: it turns a store into a
:class:`RecoveryPlan`; :class:`~repro.service.server.JobService` applies
the plan to its queue and job table.
"""

from __future__ import annotations

import dataclasses
from typing import List

from .store import TERMINAL_STATES, JobRecord, JobStore

__all__ = ["RecoveryPlan", "recover_jobs", "POISON_ERROR_PREFIX"]

POISON_ERROR_PREFIX = "poison-spec circuit breaker"


@dataclasses.dataclass
class RecoveryPlan:
    """What a booting server must do with each surviving record."""

    #: records to re-admit (original submission order), all with
    #: ``resume`` semantics — an empty journal resumes to a full run
    requeue: List[JobRecord] = dataclasses.field(default_factory=list)
    #: records already terminal: rehydrate as finished jobs
    finished: List[JobRecord] = dataclasses.field(default_factory=list)
    #: running records quarantined by the circuit breaker this boot
    #: (they are also in ``finished``, now in state ``failed``)
    poisoned: List[JobRecord] = dataclasses.field(default_factory=list)
    #: mid-run records being resumed (subset of ``requeue``)
    resumed: List[JobRecord] = dataclasses.field(default_factory=list)
    n_torn: int = 0
    max_seq: int = 0

    def summary_lines(self) -> List[str]:
        lines = [
            f"recovery: {len(self.requeue)} re-queued "
            f"({len(self.resumed)} resuming mid-run journals), "
            f"{len(self.finished)} terminal, "
            f"{len(self.poisoned)} poisoned, {self.n_torn} torn"
        ]
        for rec in self.resumed:
            lines.append(
                f"  resume {rec.job_id} ({rec.kind}, tenant {rec.tenant}, "
                f"crash #{rec.crashes})"
            )
        for rec in self.poisoned:
            lines.append(f"  quarantine {rec.job_id}: {rec.error}")
        return lines


def recover_jobs(store: JobStore, poison_threshold: int = 3) -> RecoveryPlan:
    """Classify every record in ``store`` and persist the verdicts.

    Every state change this function decides (a crashed job re-queued,
    a poisoned job failed) is written back through the store before the
    plan is returned, so a crash *during* recovery just re-runs it.
    """
    records, torn = store.load_all()
    plan = RecoveryPlan(n_torn=len(torn))
    for rec in records:
        plan.max_seq = max(plan.max_seq, rec.seq)
        if rec.state in TERMINAL_STATES:
            plan.finished.append(rec)
            continue
        if rec.state == "running":
            # The server died while this job ran: that is one crash
            # charged against the spec's content hash.
            rec.crashes += 1
            crashes = store.record_crash(rec.spec_hash)
            if crashes >= poison_threshold:
                rec.state = "failed"
                rec.exit_code = 1
                rec.error = (
                    f"{POISON_ERROR_PREFIX}: spec {rec.spec_hash[:12]}… "
                    f"crashed the server {crashes} time(s) "
                    f"(threshold {poison_threshold}); quarantined as failed"
                )
                store.write(rec, force=True)
                plan.finished.append(rec)
                plan.poisoned.append(rec)
                continue
            rec.state = "queued"
            store.write(rec, force=True)
            plan.requeue.append(rec)
            plan.resumed.append(rec)
            continue
        # submitted or queued: never started, nothing to resume — but a
        # journal dir may exist from a pre-crash incarnation, so resume
        # semantics (replay-then-run) are always the safe choice.
        if rec.state == "submitted":
            rec.state = "queued"
        store.write(rec, force=True)
        plan.requeue.append(rec)
    return plan
