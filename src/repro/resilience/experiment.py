"""The three-arm resilience experiment: healthy / unmitigated / resilient.

One Sedov trajectory is run three ways under the same seed:

* **healthy** — no faults at all: the floor;
* **unmitigated** — the fault timeline with monitoring and
  checkpointing disabled: a crash resubmits the job from scratch and
  throttled nodes are never evicted (the paper's pre-lessons workflow);
* **resilient** — the full detect → mitigate → checkpoint → recover
  loop.

The headline number is the *recovery fraction*:

    (wall_unmitigated − wall_resilient) / (wall_unmitigated − wall_healthy)

i.e. how much of the fault-induced slowdown the online mitigations win
back (1.0 = resilient run as fast as a fault-free run, 0.0 = no better
than doing nothing).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from ..amr.driver import DriverConfig, RunSummary
from ..core.policy import get_policy
from ..amr.sedov import SedovConfig, SedovEpoch, SedovWorkload
from ..engine.hooks import PhaseProfilerHook
from ..perf.supervisor import STRICT, SupervisorConfig, supervised_map
from ..simnet.cluster import Cluster
from ..simnet.faults import (
    NO_TRANSPORT_FAULTS,
    FaultTimeline,
    NodeCrash,
    ThrottleOnset,
    TransportFaultModel,
)
from .driver import UNMITIGATED, ResilienceConfig, run_resilient_trajectory
from .mitigation import kind_name

__all__ = [
    "ResilienceExperimentConfig",
    "ResilienceExperimentResult",
    "small_workload",
    "run_resilience_experiment",
]


def small_workload(
    n_ranks: int, steps: int = 200, seed: int = 7
) -> List[SedovEpoch]:
    """A reduced Sedov trajectory for resilience experiments.

    Geometry-faithful at one root block per rank (8³-cell blocks on a
    4 × 4 × (n/16) root grid), so it runs in seconds at a few hundred
    ranks while keeping real refinement dynamics.
    """
    if n_ranks % 16 != 0 or n_ranks < 16:
        raise ValueError("n_ranks must be a positive multiple of 16")
    cfg = SedovConfig(
        n_ranks=n_ranks,
        mesh_cells=(32, 32, (n_ranks // 16) * 8),
        block_cells=8,
        t_total=steps,
        seed=seed,
    )
    return SedovWorkload(cfg).full_trajectory()


@dataclasses.dataclass(frozen=True)
class ResilienceExperimentConfig:
    """Scenario knobs for the three-arm experiment.

    The default scenario on 256 ranks (16 nodes): node 3 fail-stops at
    step 90, node 5 starts severe thermal throttling (8×) at step 120 —
    the mid-run version of the paper's "one hot node poisons the
    collective" case study.
    """

    n_ranks: int = 256
    steps: int = 400
    policy: str = "lpt"
    seed: int = 3
    workload_seed: int = 7
    crash_step: Optional[int] = 90
    crash_node: int = 3
    throttle_step: Optional[int] = 120
    throttle_nodes: tuple = (5,)
    throttle_factor: Optional[float] = 8.0    #: None = cluster default (4x)
    #: unreliable-fabric model for the two faulty arms (the healthy arm
    #: always runs on a reliable fabric)
    transport: TransportFaultModel = NO_TRANSPORT_FAULTS
    checkpoint_interval_epochs: int = 2
    check_determinism: bool = True
    #: attach a PhaseProfilerHook per arm (``result.profiles``)
    profile: bool = False
    #: cooperative-cancel flag file threaded into each arm's
    #: DriverConfig (the engine attaches a CancellationHook).  Excluded
    #: from repr/compare: the item reprs feed the sweep/journal key, and
    #: a cancelled run must resume under the same key with no flag set.
    cancel_path: Optional[str] = dataclasses.field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        get_policy(self.policy)  # fail fast, naming a bad policy

    def timeline(self) -> FaultTimeline:
        events = []
        if self.crash_step is not None:
            events.append(NodeCrash(step=self.crash_step, node=self.crash_node))
        if self.throttle_step is not None and self.throttle_nodes:
            events.append(
                ThrottleOnset(
                    step=self.throttle_step,
                    nodes=tuple(self.throttle_nodes),
                    factor=self.throttle_factor,
                )
            )
        return FaultTimeline(events=tuple(events))


@dataclasses.dataclass
class ResilienceExperimentResult:
    """Summaries of the three arms plus derived headline numbers."""

    healthy: RunSummary
    unmitigated: RunSummary
    resilient: RunSummary
    deterministic: Optional[bool]   #: None when the check was skipped
    #: arm name -> PhaseProfilerHook, when run with ``profile=True``
    profiles: Optional[Dict[str, PhaseProfilerHook]] = None

    @property
    def recovery_fraction(self) -> float:
        """Share of the fault-induced slowdown won back by mitigation."""
        excess = self.unmitigated.wall_s - self.healthy.wall_s
        if excess <= 0:
            return 1.0
        return (self.unmitigated.wall_s - self.resilient.wall_s) / excess

    def mitigation_log(self) -> List[str]:
        """Human-readable resilient-arm mitigation log lines."""
        t = self.resilient.collector.mitigations_table()
        lines = []
        for i in range(t.n_rows):
            lines.append(
                f"step {int(t['step'][i]):>5}  epoch {int(t['epoch'][i]):>3}  "
                f"{kind_name(int(t['kind'][i])):<15} "
                f"nodes={int(t['n_nodes'][i])}  cost={float(t['cost_s'][i]):.2f}s"
            )
        return lines

    def report(self) -> str:
        rows = [
            ("healthy (no faults)", self.healthy),
            ("unmitigated", self.unmitigated),
            ("resilient", self.resilient),
        ]
        out = []
        for label, s in rows:
            out.append(
                f"{label:<22} wall={s.wall_s:9.1f}s  ranks={s.n_ranks:<5} "
                f"ckpt={s.n_checkpoints} restore={s.n_restores} "
                f"evict={s.n_evictions} drain={s.n_drain_enables} "
                f"mitigation={s.mitigation_s:6.1f}s"
            )
        if any(s.n_retransmits or s.n_rollbacks or s.n_degraded_epochs
               for _, s in rows):
            out.append("")
            out.append("transport (unreliable fabric):")
            for label, s in rows:
                out.append(
                    f"{label:<22} retrans={s.n_retransmits} "
                    f"drops={s.n_transport_drops} "
                    f"dup_suppressed={s.n_dup_suppressed} "
                    f"rollback={s.n_rollbacks} degraded={s.n_degraded_epochs} "
                    f"stall={s.transport_stall_s:.3f}s"
                )
        out.append("")
        out.append("resilient-arm mitigation log:")
        out.extend("  " + line for line in self.mitigation_log())
        out.append("")
        out.append(f"recovery fraction: {self.recovery_fraction:.1%} of the "
                   f"fault-induced slowdown won back")
        if self.deterministic is not None:
            out.append(
                "determinism: two same-seed resilient runs are "
                + ("bit-identical" if self.deterministic else "DIVERGENT")
            )
        return "\n".join(out)


#: Per-process memo of the last generated workload (the four arms of one
#: experiment share a trajectory; a worker process serving several arms
#: of the same experiment generates it once, exactly like the serial path).
_WORKLOAD_MEMO: Dict[tuple, List[SedovEpoch]] = {}


def _experiment_workload(n_ranks: int, steps: int, seed: int) -> List[SedovEpoch]:
    key = (n_ranks, steps, seed)
    if key not in _WORKLOAD_MEMO:
        _WORKLOAD_MEMO.clear()          # keep at most one workload alive
        _WORKLOAD_MEMO[key] = small_workload(n_ranks, steps, seed)
    return _WORKLOAD_MEMO[key]


def _run_experiment_arm(args) -> tuple:
    """One experiment arm ('healthy'/'unmitigated'/'resilient'/'recheck').

    Rebuilds the (deterministic) workload, cluster, and configs from the
    experiment config alone, so arms can run in any process and still
    reproduce the serial results bit for bit.  Returns
    ``(summary, profiler_or_None)``.
    """
    config, arm = args
    epochs = _experiment_workload(config.n_ranks, config.steps, config.workload_seed)
    cluster = Cluster(n_ranks=config.n_ranks)
    driver_cfg = DriverConfig(seed=config.seed, cancel_path=config.cancel_path)
    faulty_cfg = DriverConfig(
        seed=config.seed, transport=config.transport,
        cancel_path=config.cancel_path,
    )
    resilience = ResilienceConfig(
        checkpoint_interval_epochs=config.checkpoint_interval_epochs
    )
    profiler = (
        PhaseProfilerHook() if config.profile and arm != "recheck" else None
    )
    hooks = [profiler] if profiler else None
    if arm == "healthy":
        summary = run_resilient_trajectory(
            config.policy, epochs, cluster, driver_cfg,
            resilience=resilience, timeline=FaultTimeline.static(),
            hooks=hooks,
        )
    elif arm == "unmitigated":
        summary = run_resilient_trajectory(
            config.policy, epochs, cluster, faulty_cfg,
            resilience=UNMITIGATED, timeline=config.timeline(),
            hooks=hooks,
        )
    else:                               # 'resilient' and its 'recheck' twin
        summary = run_resilient_trajectory(
            config.policy, epochs, cluster, faulty_cfg,
            resilience=resilience, timeline=config.timeline(),
            hooks=hooks,
        )
    return summary, profiler


def run_resilience_experiment(
    config: ResilienceExperimentConfig = ResilienceExperimentConfig(),
    jobs: int = 1,
    supervise: Optional[SupervisorConfig] = None,
    on_event=None,
) -> ResilienceExperimentResult:
    """Run the three arms (plus an optional determinism re-run).

    ``jobs`` shards the independent arms across a process pool
    (``jobs=0`` = one worker per CPU); every arm re-derives its
    stochastic streams from the experiment config, so the parallel
    results are bit-identical to the serial ones.

    With ``supervise`` set, arms run on the supervised executor (crash
    respawn, retries, timeouts, resumable journal).  Unlike sweeps,
    every arm is *required* — a quarantined arm makes the derived
    numbers meaningless, so it raises :class:`RuntimeError` instead of
    returning a partial result.
    """
    arms = ["healthy", "unmitigated", "resilient"]
    if config.check_determinism:
        arms.append("recheck")
    items = [(config, a) for a in arms]
    report = supervised_map(
        _run_experiment_arm, items, jobs, config=supervise or STRICT,
        on_event=on_event,
    )
    if report.failures:
        detail = "; ".join(
            f"{arms[f.index]}: {f.kind} after {f.attempts} attempt(s)"
            f" ({f.error})"
            for f in report.failures
        )
        raise RuntimeError(f"resilience experiment arm(s) quarantined: {detail}")
    results = report.results
    summaries = {arm: summary for arm, (summary, _) in zip(arms, results)}
    profiles: Optional[Dict[str, PhaseProfilerHook]] = (
        {
            arm: profiler
            for arm, (_, profiler) in zip(arms, results)
            if profiler is not None
        }
        if config.profile
        else None
    )

    deterministic: Optional[bool] = None
    if config.check_determinism:
        resilient, rerun = summaries["resilient"], summaries["recheck"]
        deterministic = (
            rerun.wall_s == resilient.wall_s
            and rerun.phase_rank_seconds == resilient.phase_rank_seconds
            and rerun.n_evictions == resilient.n_evictions
            and rerun.evicted_nodes == resilient.evicted_nodes
            and rerun.n_retransmits == resilient.n_retransmits
            and rerun.n_rollbacks == resilient.n_rollbacks
            and rerun.n_degraded_epochs == resilient.n_degraded_epochs
        )
    return ResilienceExperimentResult(
        healthy=summaries["healthy"],
        unmitigated=summaries["unmitigated"],
        resilient=summaries["resilient"],
        deterministic=deterministic,
        profiles=profiles,
    )
