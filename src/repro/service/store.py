"""Crash-safe on-disk job store: the service's write-ahead tenant state.

PR 7's ``repro serve`` kept every job — queued backlogs, running
attempts, finished digests — in one in-memory dict, so the server
process was the single point of failure the rest of the stack had
already been hardened against (journaled sweeps survive ``kill -9``;
the serving layer did not).  The :class:`JobStore` closes that gap the
same way the sweep journal (PR 6) and checkpoint store (PR 1/3) do:
one small, atomic, checksummed record per unit of state, committed by
rename, with torn writes detected instead of trusted.

Layout under the store root (the ``repro serve --state DIR`` flag)::

    jobs/job-0001.json     one record per job: spec params, tenant,
                           priority, lifecycle state, journal dir,
                           idempotency key, result digest, and (once
                           it finished) its executor events ...
    jobs/job-0001.json.torn  a record that failed CRC verification,
                           quarantined at recovery (named evidence,
                           never silently resurrected)
    poison.json            spec-hash -> server-crash counts (the
                           poison-spec circuit breaker ledger)

Every record file is ``{"magic", "crc32", "payload"}`` where
``payload`` is the canonical JSON of the record and ``crc32`` covers
its bytes — a truncated or bit-flipped file fails verification and is
treated as torn.  Writes stage to a temp file, fsync it, rename it into
place, and fsync the directory, so the commit point of every state
transition is a single atomic rename.

Lifecycle states are **monotonic** within a server process::

    submitted -> queued -> running -> {done, failed, cancelled, shed}

The store enforces that order on :meth:`write` — a bug that tries to
move a done job back to running fails loudly instead of corrupting
tenant history.  Recovery (:mod:`repro.service.recovery`) is the one
legal exception: a job found mid-``running`` after a crash is re-queued
with ``force=True`` and its crash count incremented.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import zlib
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..perf.supervisor import ExecutorEvent
from ..telemetry.columnar import atomic_write, fsync_dir

__all__ = [
    "JobRecord",
    "JobStore",
    "StoreError",
    "TERMINAL_STATES",
    "STATE_ORDER",
    "spec_hash",
]

_MAGIC = "RPJB01"

#: lifecycle rank: transitions may never decrease, and terminal states
#: (rank 3) admit no further transition at all
STATE_ORDER: Dict[str, int] = {
    "submitted": 0,
    "queued": 1,
    "running": 2,
    "done": 3,
    "failed": 3,
    "cancelled": 3,
    "shed": 3,
}

TERMINAL_STATES = frozenset(s for s, r in STATE_ORDER.items() if r == 3)


class StoreError(RuntimeError):
    """An illegal store operation (non-monotonic transition, bad state)."""


def spec_hash(kind: str, params: Dict) -> str:
    """Content hash of a submitted spec: the circuit-breaker identity.

    Canonical JSON over (kind, params) so two submits of the same
    experiment — whatever their tenant, priority, or key — share one
    crash history.
    """
    doc = json.dumps({"kind": kind, "params": params}, sort_keys=True,
                     separators=(",", ":"), default=str)
    return hashlib.sha256(doc.encode()).hexdigest()


@dataclasses.dataclass
class JobRecord:
    """One job's durable state (everything recovery needs to rebuild it).

    ``params`` is the raw JSON params dict from the submit request —
    the spec is *rebuilt* from it at recovery through the same
    :func:`~repro.service.spec.spec_from_params` path a live submit
    uses, so a recovered job can never drift from what was asked.
    The server's live job is a subclass: it adds in-memory state, and
    :meth:`to_json` writes only the fields declared here.
    """

    job_id: str
    seq: int                      #: submission order (restores the id counter)
    kind: str
    params: Dict
    tenant: str
    priority: int
    jobs: int
    state: str
    journal_dir: str
    spec_hash: str
    idempotency_key: Optional[str] = None
    deadline_s: Optional[float] = None
    resume_of: Optional[str] = None
    #: times a server died while this record was mid-``running``
    crashes: int = 0
    #: terminal-state result facts (the renderable text is not retained
    #: across restarts; digests and codes are)
    digest: Optional[str] = None
    exit_code: Optional[int] = None
    error: Optional[str] = None
    cancelled: bool = False
    #: the job's executor events, stored as the dicts the ``events``
    #: verb streams (a record written before they were kept has none)
    events: List[ExecutorEvent] = dataclasses.field(default_factory=list)

    def to_json(self) -> Dict:
        doc = {f.name: getattr(self, f.name)
               for f in dataclasses.fields(JobRecord)}
        doc["events"] = [dataclasses.asdict(e) for e in self.events]
        return doc

    @classmethod
    def from_json(cls, doc: Dict) -> "JobRecord":
        fields = {f.name for f in dataclasses.fields(JobRecord)}
        rec = cls(**{k: v for k, v in doc.items() if k in fields})
        rec.events = [ExecutorEvent(**e) for e in rec.events]
        return rec


def _write_checksummed(path: Path, payload: str) -> None:
    """Atomic, fsync'd write of one CRC-framed JSON document."""
    doc = {
        "magic": _MAGIC,
        "crc32": zlib.crc32(payload.encode()),
        "payload": payload,
    }
    atomic_write(path, json.dumps(doc).encode())


def _read_checksummed(path: Path) -> Optional[Dict]:
    """The verified payload of one record, or ``None`` if torn."""
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        return None
    if (
        not isinstance(doc, dict)
        or doc.get("magic") != _MAGIC
        or not isinstance(doc.get("payload"), str)
        or zlib.crc32(doc["payload"].encode()) != doc.get("crc32")
    ):
        return None
    try:
        payload = json.loads(doc["payload"])
    except json.JSONDecodeError:
        return None
    return payload if isinstance(payload, dict) else None


class JobStore:
    """Write-through store of :class:`JobRecord` files for one service.

    All methods are synchronous filesystem work; the server calls them
    from its event loop (records are small — a transition is one
    staged write + rename).  The store keeps an in-process view of each
    job's last written state to enforce monotonicity; recovery uses
    ``force=True`` to re-queue crashed jobs across that rule.
    """

    def __init__(self, root: "str | Path") -> None:
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self._poison_path = self.root / "poison.json"
        self._states: Dict[str, str] = {}
        self._poison: Dict[str, int] = self._load_poison()

    # ------------------------------------------------------------------ #
    # job records
    # ------------------------------------------------------------------ #

    def _record_path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}.json"

    def write(self, record: JobRecord, force: bool = False) -> None:
        """Persist one record, enforcing monotonic lifecycle order.

        ``force`` is the recovery/drain escape hatch: it may move a
        ``running`` record back to ``queued`` (the server died or
        drained mid-run and the job will resume through its journal).
        """
        if record.state not in STATE_ORDER:
            raise StoreError(f"unknown job state {record.state!r}")
        previous = self._states.get(record.job_id)
        if previous is not None and not force:
            if previous in TERMINAL_STATES and record.state != previous:
                raise StoreError(
                    f"{record.job_id}: illegal transition "
                    f"{previous} -> {record.state} (terminal)"
                )
            if STATE_ORDER[record.state] < STATE_ORDER[previous]:
                raise StoreError(
                    f"{record.job_id}: illegal transition "
                    f"{previous} -> {record.state} (non-monotonic)"
                )
        payload = json.dumps(record.to_json(), sort_keys=True, default=str)
        _write_checksummed(self._record_path(record.job_id), payload)
        self._states[record.job_id] = record.state

    def load(self, job_id: str) -> Optional[JobRecord]:
        payload = _read_checksummed(self._record_path(job_id))
        return None if payload is None else JobRecord.from_json(payload)

    def load_all(self) -> Tuple[List[JobRecord], List[Path]]:
        """Every verifiable record (by submission order) + torn files.

        Torn records — truncated, bit-flipped, or otherwise failing
        CRC — are renamed to ``*.torn`` so they are quarantined as
        evidence rather than rescanned (or worse, trusted) on the next
        boot.
        """
        records: List[JobRecord] = []
        torn: List[Path] = []
        for path in sorted(self.jobs_dir.glob("job-*.json")):
            payload = _read_checksummed(path)
            if payload is None:
                quarantined = path.with_name(path.name + ".torn")
                path.replace(quarantined)
                torn.append(quarantined)
                continue
            records.append(JobRecord.from_json(payload))
        if torn:
            fsync_dir(self.jobs_dir)
        records.sort(key=lambda r: r.seq)
        for r in records:
            self._states[r.job_id] = r.state
        return records, torn

    def flush(self) -> None:
        """fsync the record directory (the drain-shutdown final barrier)."""
        fsync_dir(self.jobs_dir)
        fsync_dir(self.root)

    # ------------------------------------------------------------------ #
    # poison-spec circuit breaker ledger
    # ------------------------------------------------------------------ #

    def _load_poison(self) -> Dict[str, int]:
        payload = _read_checksummed(self._poison_path)
        if payload is None:
            return {}
        return {
            str(k): int(v) for k, v in payload.items()
            if isinstance(v, (int, float))
        }

    def _save_poison(self) -> None:
        _write_checksummed(self._poison_path, json.dumps(
            self._poison, sort_keys=True
        ))

    def record_crash(self, shash: str) -> int:
        """Count one server crash against a spec hash; returns the total."""
        self._poison[shash] = self._poison.get(shash, 0) + 1
        self._save_poison()
        return self._poison[shash]

    def clear_poison(self, shash: str) -> None:
        """A clean completion closes the breaker for this spec hash."""
        if self._poison.pop(shash, None) is not None:
            self._save_poison()

    def crash_count(self, shash: str) -> int:
        return self._poison.get(shash, 0)

    def is_poisoned(self, shash: str, threshold: int) -> bool:
        """True once a spec hash has crashed the server ``threshold`` times."""
        return self.crash_count(shash) >= threshold
