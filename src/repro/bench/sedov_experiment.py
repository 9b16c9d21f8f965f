"""Sedov Blast Wave experiment harness (paper §VI-B: Fig. 6, Table I).

Drives the full evaluation sweep: for each scale, generate the
policy-independent Sedov trajectory once, run baseline and CPLX
{0, 25, 50, 75, 100} over it, and emit:

* Fig. 6a — phase-decomposed total runtime per policy per scale;
* Fig. 6b — P2P communication and synchronization time normalized to
  baseline (the load–locality tradeoff);
* Fig. 6c — local vs remote message split, normalized to baseline's
  total MPI-visible message count;
* Table I — t_total, t_lb, n_initial, n_final per configuration.

``REPRO_SCALE=paper`` (read by the benchmarks) switches from the
geometry-faithful reduced configurations to the full Table I runs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple


from ..amr.driver import DriverConfig, RunSummary, run_trajectory
from ..amr.sedov import SedovConfig, SedovEpoch, scaled_config, table_i_config
from ..core.policy import get_policy
from ..engine.hooks import PhaseProfilerHook
from ..perf.supervisor import (
    STRICT,
    CellFailure,
    SupervisedReport,
    SupervisorConfig,
    supervised_map,
)
from ..simnet.cluster import Cluster
from .reporting import format_table

__all__ = [
    "SedovSweepConfig",
    "PolicyOutcome",
    "SedovSweepResult",
    "run_sedov_sweep",
    "paper_scale_requested",
]

#: Sweep policy arms: paper's baseline + CPLX X values.
DEFAULT_POLICIES: Tuple[str, ...] = (
    "baseline",
    "cplx:0",
    "cplx:25",
    "cplx:50",
    "cplx:75",
    "cplx:100",
)


def paper_scale_requested() -> bool:
    """Whether the environment asks for full Table I scale runs."""
    return os.environ.get("REPRO_SCALE", "").lower() == "paper"


@dataclasses.dataclass(frozen=True)
class SedovSweepConfig:
    """Scope of one Sedov sweep."""

    scales: Tuple[int, ...] = (512, 1024)
    policies: Tuple[str, ...] = DEFAULT_POLICIES
    #: reduced-geometry divisor and step budget (ignored at paper scale)
    geometry_scale: int = 8
    steps: int = 2_000
    paper_scale: bool = False
    driver: DriverConfig = dataclasses.field(default_factory=DriverConfig)
    #: attach a PhaseProfilerHook to every arm (``PolicyOutcome.profile``)
    profile: bool = False
    #: mixed-hardware cluster spec (``fast:0.5x16,slow:1.0x48``); ``None``
    #: keeps the historical homogeneous sweep bit for bit
    node_classes: Optional[str] = None

    def __post_init__(self) -> None:
        # Resolve every arm once: a bad name fails here, naming the
        # policy, instead of after the cells before it have run.
        for name in self.policies:
            get_policy(name)

    def sweep_cluster(self, n_ranks: int) -> Cluster:
        """The cluster a cell at ``n_ranks`` runs on."""
        if self.node_classes is None:
            return Cluster(n_ranks=n_ranks)
        from ..simnet.cluster import hetero_cluster

        return hetero_cluster(n_ranks, self.node_classes)

    def sedov_config(self, n_ranks: int) -> SedovConfig:
        if self.paper_scale:
            return table_i_config(n_ranks)
        return scaled_config(n_ranks, scale=self.geometry_scale, steps=self.steps)


@dataclasses.dataclass
class PolicyOutcome:
    """One policy arm's results at one scale."""

    scale: int
    policy_label: str
    summary: RunSummary
    msg_local: float           #: mean per-epoch local MPI message count
    msg_remote: float
    msg_intra: float           #: co-located (memcpy) pair count
    #: populated when the sweep ran with ``profile=True``
    profile: PhaseProfilerHook | None = None

    @property
    def wall_s(self) -> float:
        return self.summary.wall_s

    @property
    def remote_fraction(self) -> float:
        vis = self.msg_local + self.msg_remote
        return self.msg_remote / vis if vis else 0.0


@dataclasses.dataclass
class SedovSweepResult:
    """All policy arms across all scales, plus Table I statistics.

    Under supervised execution (``run_sedov_sweep(..., supervise=...)``)
    quarantined cells are absent from ``outcomes`` and listed in
    ``failures``; the report tables simply skip the missing arms
    (graceful degradation — a poison cell costs its own numbers, not the
    sweep).
    """

    outcomes: List[PolicyOutcome]
    table_i: List[Dict[str, int]]
    #: quarantined (scale, policy) cells, empty for unsupervised runs
    failures: List[CellFailure] = dataclasses.field(default_factory=list)
    #: the executor's event/counter record, when supervised
    executor: Optional[SupervisedReport] = None

    # ------------------------------------------------------------------ #

    def at(self, scale: int, label: str) -> PolicyOutcome:
        for o in self.outcomes:
            if o.scale == scale and o.policy_label == label:
                return o
        raise KeyError(f"no outcome for scale={scale}, policy={label}")

    def has(self, scale: int, label: str) -> bool:
        return any(
            o.scale == scale and o.policy_label == label for o in self.outcomes
        )

    def digest(self) -> str:
        """SHA-256 over the deterministic (simulation-derived) results.

        Covers message-locality counts and trajectory shape per arm —
        fields that are bit-identical across serial, parallel, and
        resumed executions — so two runs of the same configuration can
        be compared with one string.
        """
        h = hashlib.sha256()
        for o in self.outcomes:
            h.update(
                (
                    f"{o.scale}|{o.policy_label}|{o.msg_local!r}|"
                    f"{o.msg_remote!r}|{o.msg_intra!r}|"
                    f"{o.summary.total_steps}|{o.summary.n_epochs}|"
                    f"{o.summary.final_blocks}\n"
                ).encode()
            )
        return h.hexdigest()

    def scales(self) -> List[int]:
        return sorted({o.scale for o in self.outcomes})

    def labels(self) -> List[str]:
        seen: List[str] = []
        for o in self.outcomes:
            if o.policy_label not in seen:
                seen.append(o.policy_label)
        return seen

    def reduction_vs_baseline(self, scale: int, label: str) -> float:
        if not self.has(scale, "baseline"):
            return float("nan")
        base = self.at(scale, "baseline").wall_s
        return (base - self.at(scale, label).wall_s) / base

    def best_label(self, scale: int) -> str:
        return min(
            (label for label in self.labels() if self.has(scale, label)),
            key=lambda label: self.at(scale, label).wall_s,
        )

    # ------------------------------------------------------------------ #
    # the paper's tables/figures as text
    # ------------------------------------------------------------------ #

    def fig6a_table(self) -> str:
        """Phase-decomposed runtime per policy per scale."""
        rows = []
        for scale in self.scales():
            for label in self.labels():
                if not self.has(scale, label):
                    continue            # quarantined under supervision
                o = self.at(scale, label)
                f = o.summary.phase_fractions()
                rows.append(
                    [
                        scale,
                        label,
                        round(o.wall_s, 1),
                        f"{self.reduction_vs_baseline(scale, label):.1%}",
                        f"{f['compute']:.1%}",
                        f"{f['comm']:.1%}",
                        f"{f['sync']:.1%}",
                        f"{f['lb']:.1%}",
                    ]
                )
        return format_table(
            ["ranks", "policy", "wall_s", "vs_base", "comp", "comm", "sync", "lb"],
            rows,
            title="Fig 6a: total runtime by phase",
        )

    def _table_scales(self, scales: Sequence[int] | None) -> List[int]:
        """Scales a Fig. 6b/6c table lists: the first and last sweep
        scale by default, each once, in order."""
        return list(dict.fromkeys(scales or [self.scales()[0], self.scales()[-1]]))

    def fig6b_table(self, scales: Sequence[int] | None = None) -> str:
        """Comm & sync normalized to baseline (paper shows 512 & 4096)."""
        scales = self._table_scales(scales)
        rows = []
        for scale in scales:
            if not self.has(scale, "baseline"):
                continue                # baseline arm quarantined
            base = self.at(scale, "baseline").summary.phase_rank_seconds
            for label in self.labels():
                if not self.has(scale, label):
                    continue
                p = self.at(scale, label).summary.phase_rank_seconds
                rows.append(
                    [
                        scale,
                        label,
                        round(p["comm"] / base["comm"], 3) if base["comm"] else 0.0,
                        round(p["sync"] / base["sync"], 3) if base["sync"] else 0.0,
                    ]
                )
        return format_table(
            ["ranks", "policy", "comm/base", "sync/base"],
            rows,
            title="Fig 6b: communication vs synchronization tradeoff",
        )

    def fig6c_table(self, scales: Sequence[int] | None = None) -> str:
        """Local/remote message split normalized to baseline total."""
        scales = self._table_scales(scales)
        rows = []
        for scale in scales:
            if not self.has(scale, "baseline"):
                continue                # baseline arm quarantined
            base = self.at(scale, "baseline")
            base_total = base.msg_local + base.msg_remote
            for label in self.labels():
                if not self.has(scale, label):
                    continue
                o = self.at(scale, label)
                rows.append(
                    [
                        scale,
                        label,
                        round(o.msg_local / base_total, 3) if base_total else 0.0,
                        round(o.msg_remote / base_total, 3) if base_total else 0.0,
                        f"{o.remote_fraction:.0%}",
                    ]
                )
        return format_table(
            ["ranks", "policy", "local/base", "remote/base", "remote_frac"],
            rows,
            title="Fig 6c: P2P message locality",
        )

    def table_i_text(self) -> str:
        rows = [
            [
                t["ranks"],
                t["t_total"],
                t["t_lb"],
                t["n_initial"],
                t["n_final"],
            ]
            for t in self.table_i
        ]
        return format_table(
            ["ranks", "t_total", "t_lb", "n_initial", "n_final"],
            rows,
            title="Table I: problem configurations",
        )


#: Per-process memo of generated trajectories, keyed by SedovConfig.
#: Bounded so long-lived processes (and pool workers shared by many
#: cells) don't accumulate every scale ever swept.
_TRAJECTORY_MEMO: "OrderedDict[SedovConfig, List[SedovEpoch]]" = OrderedDict()
_TRAJECTORY_MEMO_MAX = 4


def _scale_trajectory(sedov_cfg: SedovConfig) -> List[SedovEpoch]:
    """The (deterministic) trajectory for one scale, memoized per process.

    In the serial path this preserves the old behavior of generating the
    trajectory once per scale and sharing it across policy arms; under
    the process-pool executor each worker generates (or loads from the
    optional on-disk cache — see :mod:`repro.perf.trajcache`) at most
    one copy per scale it touches.
    """
    trajectory = _TRAJECTORY_MEMO.get(sedov_cfg)
    if trajectory is None:
        from ..perf.trajcache import cached_full_trajectory

        trajectory = cached_full_trajectory(sedov_cfg)
        _TRAJECTORY_MEMO[sedov_cfg] = trajectory
        while len(_TRAJECTORY_MEMO) > _TRAJECTORY_MEMO_MAX:
            _TRAJECTORY_MEMO.popitem(last=False)
    else:
        _TRAJECTORY_MEMO.move_to_end(sedov_cfg)
    return trajectory


@dataclasses.dataclass(frozen=True)
class _SweepCell:
    """One independent (scale, policy) cell of a Sedov sweep."""

    config: SedovSweepConfig
    scale: int
    policy: str


def _run_sweep_cell(cell: _SweepCell) -> Tuple[PolicyOutcome, Dict[str, int]]:
    """Execute one cell; deterministic given the cell alone.

    Every stochastic stream is re-seeded from the cell's configs (the
    workload seed lives in the SedovConfig, the driver seed in
    DriverConfig), so running cells in any process, in any order,
    reproduces the serial results bit for bit.
    """
    config = cell.config
    sedov_cfg = config.sedov_config(cell.scale)
    trajectory = _scale_trajectory(sedov_cfg)
    cluster = config.sweep_cluster(cell.scale)
    policy = get_policy(cell.policy)
    profiler = PhaseProfilerHook() if config.profile else None
    summary = run_trajectory(
        policy, trajectory, cluster, config.driver,
        hooks=[profiler] if profiler else None,
    )
    # No sweep report reads the rows; a journal would pickle them per cell.
    summary.collector = None
    # ``name:X`` arms report their paper-style label (CPL50, HCPL50).
    label = policy.label if ":" in cell.policy else cell.policy
    outcome = PolicyOutcome(
        scale=cell.scale,
        policy_label=label,
        summary=summary,
        msg_local=summary.msg_local,
        msg_remote=summary.msg_remote,
        msg_intra=summary.msg_intra_rank,
        profile=profiler,
    )
    table_entry = {
        "ranks": cell.scale,
        "t_total": sum(e.n_steps for e in trajectory),
        "t_lb": max(len(trajectory) - 1, 0),
        "n_initial": len(trajectory[0].keys),
        "n_final": len(trajectory[-1].keys),
    }
    return outcome, table_entry


def run_sedov_sweep(
    config: SedovSweepConfig,
    jobs: int = 1,
    supervise: Optional[SupervisorConfig] = None,
    on_event=None,
) -> SedovSweepResult:
    """Run the full sweep.  Trajectories are shared across policy arms.

    ``jobs`` shards the independent (scale, policy) cells across a
    process pool (``jobs=0`` = one worker per CPU); results are merged
    in grid order and are bit-identical to the serial run.

    With ``supervise`` set, cells run under the supervised executor:
    crashed/hung cells are retried and — once the budget is exhausted —
    quarantined into ``result.failures`` instead of aborting the sweep,
    and a configured journal makes the sweep resumable after any
    interruption (every surviving cell still bit-identical to serial).
    Without it the first failing cell raises
    :class:`~repro.perf.executor.CellExecutionError`.
    """
    cells = [
        _SweepCell(config=config, scale=scale, policy=name)
        for scale in config.scales
        for name in config.policies
    ]
    report = supervised_map(
        _run_sweep_cell, cells, jobs, config=supervise or STRICT,
        on_event=on_event,
    )
    pairs = [
        r if not isinstance(r, CellFailure) else None for r in report.results
    ]
    outcomes = [pair[0] for pair in pairs if pair is not None]
    table_i: List[Dict[str, int]] = []
    seen_scales: set = set()
    for cell, pair in zip(cells, pairs):
        if pair is None:
            continue
        if cell.scale not in seen_scales:
            seen_scales.add(cell.scale)
            table_i.append(pair[1])
    return SedovSweepResult(
        outcomes=outcomes, table_i=table_i, failures=report.failures,
        executor=report if supervise is not None else None,
    )
