"""Execute a :class:`~repro.service.spec.JobSpec` through the
supervised pool, producing a transportable :class:`JobResult`.

The runner is the single execution path behind both front ends:

* the CLI hands it a spec built from argparse flags and prints
  ``result.text`` (byte-identical to the pre-service subcommands);
* the server hands it a spec built from a JSON ``submit`` request,
  whose supervisor config carries the job's cancel flag, deadline,
  per-job journal and the shared pattern store (the supervisor hands
  those controls to every cell it runs).

A cancelled job is not an error here: :class:`~repro.perf.cancel.
JobCancelled` is converted into a ``cancelled=True`` result carrying
the partial supervision report, and the journal it leaves behind is
resumable (``resume_of`` on a later submit, or ``--resume`` on the
CLI) to a bit-identical completion.

A caller passing ``on_event`` (the server) keeps the executor events
itself; for any other (the CLI) the runner appends each run segment's
events as one ``run-NNN`` partition of ``<journal>/telemetry``.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional

from ..perf.cancel import DeadlineExceeded, JobCancelled
from .render import render_text, supervised_lines
from .spec import REGISTRY, JobOutcome, JobSpec

__all__ = ["JobResult", "JobRunner"]

#: exit code of a cancelled job (the 128 + SIGINT convention)
CANCELLED_EXIT_CODE = 130

#: exit code of a job stopped by its deadline (the timeout(1) convention)
DEADLINE_EXIT_CODE = 124


@dataclasses.dataclass
class JobResult:
    """Everything a front end needs from one executed spec."""

    kind: str
    tenant: str
    text: str                        #: the full CLI-equivalent report
    exit_code: int
    digest: Optional[str] = None
    cancelled: bool = False
    #: the cancellation was the job's own ``deadline_s`` clock firing
    deadline_exceeded: bool = False
    #: executor counters (n_executed, n_retries, n_quarantined, ...)
    counters: Dict[str, int] = dataclasses.field(default_factory=dict)
    journal_path: Optional[str] = None
    #: this job's pattern-cache counters, summed over its engine runs
    pattern_cache: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: this job's trajectory-cache warm-start probe (sedov only)
    traj_cache: Dict[str, int] = dataclasses.field(default_factory=dict)

    def to_wire(self) -> Dict:
        """A JSON-safe dict (the ``result`` verb's payload)."""
        return dataclasses.asdict(self)


def _probe_traj_cache(spec: JobSpec) -> Dict[str, int]:
    """Warm-start attribution: which of this sedov job's trajectories
    already sit in the shared on-disk cache (per-tenant hit counters in
    job status come from summing these)."""
    if spec.kind != "sedov":
        return {}
    from ..perf.trajcache import trajectory_cache_path

    hits = misses = 0
    for scale in spec.config.scales:
        try:
            path = trajectory_cache_path(spec.config.sedov_config(scale))
        except Exception:
            # Bad scale/config: let the experiment itself raise the
            # real error from its own entry point.
            return {}
        if path is None:
            return {}
        if path.exists():
            hits += 1
        else:
            misses += 1
    return {"hits": hits, "misses": misses}


def _pattern_counters(outcome: JobOutcome) -> Dict[str, int]:
    totals = {"hits": 0, "misses": 0, "evictions": 0}
    for s in outcome.summaries:
        totals["hits"] += s.pattern_cache_hits
        totals["misses"] += s.pattern_cache_misses
        totals["evictions"] += s.pattern_cache_evictions
    return totals


def _keep_events(report, on_event) -> None:
    """Unless the caller takes them (``on_event``), append a journaled
    run segment's executor events (at its end, on cancel or on
    interruption) to ``<journal>/telemetry``."""
    if (on_event is not None or report is None
            or report.journal_path is None or not report.events):
        return
    from ..perf.supervisor import events_table
    from ..telemetry.dataset import TelemetryDataset

    path = report.journal_path / "telemetry"
    try:
        try:
            ds = TelemetryDataset.open(path)
        except FileNotFoundError:  # none yet, or a create torn pre-manifest
            ds = TelemetryDataset.create(path)
        ds.append(events_table(report.events),
                  label=f"run-{ds.n_partitions:03d}")
    except OSError:
        pass                       # telemetry must never fail the run


class JobRunner:
    """Runs specs, turning each outcome into a :class:`JobResult`.

    A job's controls (cancel flag, deadline, shared pattern store) are
    part of ``spec.supervise``: the supervisor hands them to every cell
    it runs, so the runner itself holds no state.
    """

    def run(
        self,
        spec: JobSpec,
        on_event: Optional[Callable] = None,
    ) -> JobResult:
        """Execute ``spec``; never raises :class:`JobCancelled`.

        Experiment errors (bad policy name, quarantined resilience arm,
        ...) propagate to the caller — the CLI lets them traceback as it
        always has, the server converts them to failed-job records.
        """
        if spec.kind not in REGISTRY:
            raise ValueError(f"unknown experiment kind {spec.kind!r}")
        kind = REGISTRY[spec.kind]
        traj = _probe_traj_cache(spec)
        try:
            outcome = kind.execute(spec, on_event)
        except BaseException as exc:
            _keep_events(getattr(exc, "report", None), on_event)
            if isinstance(exc, JobCancelled):
                return self._cancelled_result(spec, exc, traj)
            raise
        report = outcome.executor
        _keep_events(report, on_event)
        lines = kind.render(spec, outcome)
        return JobResult(
            kind=spec.kind,
            tenant=spec.tenant,
            text=render_text(lines),
            exit_code=kind.exit_code(outcome),
            digest=kind.digest(outcome),
            counters=dict(report.counters) if report is not None else {},
            journal_path=(
                str(report.journal_path)
                if report is not None and report.journal_path is not None
                else None
            ),
            pattern_cache=_pattern_counters(outcome),
            traj_cache=traj,
        )

    # ------------------------------------------------------------------ #

    def _cancelled_result(
        self, spec: JobSpec, exc: JobCancelled, traj: Dict[str, int]
    ) -> JobResult:
        deadline = isinstance(exc, DeadlineExceeded)
        report = getattr(exc, "report", None)
        label = "deadline exceeded" if deadline else "cancelled"
        lines: List[str] = [f"{label}: {exc}"]
        counters: Dict[str, int] = {}
        journal_path = None
        if report is not None:
            lines.extend(supervised_lines(report))
            counters = dict(report.counters)
            if report.journal_path is not None:
                journal_path = str(report.journal_path)
        return JobResult(
            kind=spec.kind,
            tenant=spec.tenant,
            text=render_text(lines),
            exit_code=DEADLINE_EXIT_CODE if deadline else CANCELLED_EXIT_CODE,
            cancelled=True,
            deadline_exceeded=deadline,
            counters=counters,
            journal_path=journal_path,
            traj_cache=traj,
        )
