"""Serializable job specifications and the experiment registry.

A :class:`JobSpec` is the tenant-agnostic description of one experiment
run — *what* to execute (an experiment kind plus its frozen config
dataclass), *who* asked (tenant), and *how urgently* (priority) — with
none of the plumbing that executes it.  Both front ends build specs:

* the CLI subcommands (``repro sedov`` / ``scalebench`` /
  ``resilience``) translate argparse flags into a spec and hand it to a
  :class:`~repro.service.runner.JobRunner` in-process;
* the job service (``repro serve``) builds specs from JSON ``submit``
  requests via :func:`spec_from_params` and schedules them through its
  admission queue.

The :data:`REGISTRY` maps each kind to its existing experiment entry
point, its renderer (byte-identical to the historical CLI output — see
:mod:`repro.service.render`), its result digest, and its exit-code
rule.  Adding an experiment to the service is one registry entry; the
queue, quota, cancellation, and query machinery are kind-agnostic.

Specs are plain frozen dataclasses of frozen dataclasses: picklable
(they cross process boundaries inside the supervised pool) and stable
under ``repr`` (their reprs feed sweep/journal keys).  A job's controls
(cancel flag, deadline, shared pattern store) live outside the
experiment config, in ``supervise``: the supervisor hands them to every
cell, so no experiment config carries them.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..perf.supervisor import SupervisedReport, SupervisorConfig

__all__ = [
    "ExperimentKind",
    "JobOutcome",
    "JobSpec",
    "REGISTRY",
    "spec_from_params",
]


@dataclasses.dataclass(frozen=True)
class JobSpec:
    """One experiment run, described without execution plumbing.

    ``config`` is the experiment's own frozen config dataclass
    (:class:`~repro.bench.sedov_experiment.SedovSweepConfig`,
    :class:`~repro.bench.scalebench.ScalebenchConfig`, or
    :class:`~repro.resilience.experiment.ResilienceExperimentConfig`).
    ``supervise`` is the supervised-executor config, or ``None`` for the
    historical bare execution path (the CLI default with no supervisor
    flag).  ``show_transport`` preserves one CLI rendering quirk: the
    sedov transport block prints whenever ``--transport-faults`` was
    given, even a spec equal to the reliable default.
    """

    kind: str                               #: a :data:`REGISTRY` key
    config: object
    tenant: str = "default"
    priority: int = 0                       #: higher = scheduled first
    jobs: int = 1                           #: worker processes (0 = n_cpu)
    supervise: Optional[SupervisorConfig] = None
    show_transport: bool = False


@dataclasses.dataclass
class JobOutcome:
    """What one executed spec produced (kind-specific ``result``)."""

    result: object
    executor: Optional[SupervisedReport] = None
    #: engine RunSummary objects, for cache-counter aggregation
    summaries: Tuple = ()


@dataclasses.dataclass(frozen=True)
class ExperimentKind:
    """One registry entry: spec → config → execution → rendering."""

    name: str
    #: the ``params`` keys :attr:`build_config` reads (any other is an error)
    params: Tuple[str, ...]
    build_config: Callable[[Mapping], object]
    execute: Callable[[JobSpec, Optional[Callable]], JobOutcome]
    render: Callable[[JobSpec, JobOutcome], List[str]]
    digest: Callable[[JobOutcome], Optional[str]]
    exit_code: Callable[[JobOutcome], int]


# ---------------------------------------------------------------------- #
# sedov
# ---------------------------------------------------------------------- #


def _parse_transport(spec: Optional[str]):
    from ..simnet.faults import NO_TRANSPORT_FAULTS, parse_transport_spec

    return NO_TRANSPORT_FAULTS if spec is None else parse_transport_spec(spec)


def _sedov_config(params: Mapping):
    from ..bench import SedovSweepConfig
    from ..engine.types import DriverConfig

    return SedovSweepConfig(
        scales=tuple(params.get("scales", (512,))),
        policies=tuple(
            params.get(
                "policies",
                ("baseline", "cplx:0", "cplx:25", "cplx:50",
                 "cplx:75", "cplx:100"),
            )
        ),
        steps=int(params.get("steps", 1500)),
        paper_scale=bool(params.get("paper_scale", False)),
        profile=bool(params.get("profile", False)),
        node_classes=params.get("node_classes"),
        driver=DriverConfig(
            transport=_parse_transport(params.get("transport_faults"))
        ),
    )


def _sedov_execute(spec: JobSpec, on_event) -> JobOutcome:
    from ..bench import run_sedov_sweep

    result = run_sedov_sweep(
        spec.config, jobs=spec.jobs, supervise=spec.supervise,
        on_event=on_event,
    )
    return JobOutcome(
        result=result,
        executor=result.executor,
        summaries=tuple(o.summary for o in result.outcomes),
    )


def _sedov_render(spec: JobSpec, outcome: JobOutcome) -> List[str]:
    from .render import render_sedov

    return render_sedov(
        outcome.result,
        show_transport=spec.show_transport,
        profile=spec.config.profile,
    )


# ---------------------------------------------------------------------- #
# scalebench
# ---------------------------------------------------------------------- #


def _scalebench_config(params: Mapping):
    from ..bench import ScalebenchConfig

    return ScalebenchConfig(
        scales=tuple(params.get("scales", (512, 2048, 8192))),
        repeats=int(params.get("repeats", 3)),
        distributions=tuple(
            params.get("distributions",
                       ("exponential", "gaussian", "power-law"))
        ),
        x_values=tuple(
            float(x) for x in params.get("x_values", (0.0, 25.0, 50.0, 75.0, 100.0))
        ),
        seed=int(params.get("seed", 0)),
        shard_ranks=int(params.get("shard_ranks", 0)),
        node_classes=params.get("node_classes"),
    )


def _scalebench_execute(spec: JobSpec, on_event) -> JobOutcome:
    from ..bench import run_scalebench_supervised

    result = run_scalebench_supervised(
        spec.config, jobs=spec.jobs, supervise=spec.supervise,
        on_event=on_event,
    )
    # The executor block renders only under requested supervision.
    executor = None if spec.supervise is None else result.executor
    return JobOutcome(result=result.rows, executor=executor)


def _scalebench_render(spec: JobSpec, outcome: JobOutcome) -> List[str]:
    from .render import render_scalebench

    return render_scalebench(
        outcome.result,
        outcome.executor,
        node_classes=getattr(spec.config, "node_classes", None),
    )


def _scalebench_digest(outcome: JobOutcome) -> str:
    from ..bench import scalebench_digest

    return scalebench_digest(outcome.result)


# ---------------------------------------------------------------------- #
# resilience
# ---------------------------------------------------------------------- #


def _resilience_config(params: Mapping):
    from ..resilience.experiment import ResilienceExperimentConfig

    def step(value):
        if value is None:
            return None
        value = int(value)
        return None if value < 0 else value

    return ResilienceExperimentConfig(
        n_ranks=int(params.get("ranks", 256)),
        steps=int(params.get("steps", 400)),
        policy=str(params.get("policy", "lpt")),
        seed=int(params.get("seed", 3)),
        crash_step=step(params.get("crash_step", 90)),
        crash_node=int(params.get("crash_node", 3)),
        throttle_step=step(params.get("throttle_step", 120)),
        throttle_nodes=tuple(params.get("throttle_nodes", (5,))),
        throttle_factor=params.get("throttle_factor", 8.0),
        transport=_parse_transport(params.get("transport_faults")),
        checkpoint_interval_epochs=int(params.get("checkpoint_interval", 2)),
        check_determinism=bool(params.get("check_determinism", True)),
        profile=bool(params.get("profile", False)),
    )


def _resilience_execute(spec: JobSpec, on_event) -> JobOutcome:
    from ..resilience.experiment import run_resilience_experiment

    result = run_resilience_experiment(
        spec.config, jobs=spec.jobs, supervise=spec.supervise,
        on_event=on_event,
    )
    return JobOutcome(
        result=result,
        executor=result.executor,
        summaries=(result.healthy, result.unmitigated, result.resilient),
    )


def _resilience_render(spec: JobSpec, outcome: JobOutcome) -> List[str]:
    from .render import render_resilience

    return render_resilience(outcome.result)


def _resilience_digest(outcome: JobOutcome) -> str:
    import hashlib

    return hashlib.sha256(outcome.result.report().encode()).hexdigest()


def _resilience_exit_code(outcome: JobOutcome) -> int:
    return 0 if outcome.result.deterministic in (True, None) else 1


# ---------------------------------------------------------------------- #


def _sedov_digest(outcome: JobOutcome) -> str:
    return outcome.result.digest()


REGISTRY: Dict[str, ExperimentKind] = {
    "sedov": ExperimentKind(
        name="sedov",
        params=("scales", "policies", "steps", "paper_scale", "profile",
                "node_classes", "transport_faults"),
        build_config=_sedov_config,
        execute=_sedov_execute,
        render=_sedov_render,
        digest=_sedov_digest,
        exit_code=lambda outcome: 0,
    ),
    "scalebench": ExperimentKind(
        name="scalebench",
        params=("scales", "repeats", "distributions", "x_values", "seed",
                "shard_ranks", "node_classes"),
        build_config=_scalebench_config,
        execute=_scalebench_execute,
        render=_scalebench_render,
        digest=_scalebench_digest,
        exit_code=lambda outcome: 0,
    ),
    "resilience": ExperimentKind(
        name="resilience",
        params=("ranks", "steps", "policy", "seed", "crash_step",
                "crash_node", "throttle_step", "throttle_nodes",
                "throttle_factor", "transport_faults", "checkpoint_interval",
                "check_determinism", "profile"),
        build_config=_resilience_config,
        execute=_resilience_execute,
        render=_resilience_render,
        digest=_resilience_digest,
        exit_code=_resilience_exit_code,
    ),
}


def spec_from_params(
    kind: str,
    params: Optional[Mapping] = None,
    tenant: str = "default",
    priority: int = 0,
    jobs: int = 1,
    supervise: Optional[SupervisorConfig] = None,
) -> JobSpec:
    """Build a :class:`JobSpec` from plain-JSON parameters (the wire
    path: ``submit`` requests carry ``kind`` + ``params``).  A key the
    kind does not read raises :class:`ValueError`."""
    if kind not in REGISTRY:
        raise ValueError(
            f"unknown experiment kind {kind!r} "
            f"(known: {', '.join(sorted(REGISTRY))})"
        )
    params = dict(params or {})
    known = REGISTRY[kind].params
    for key in params:
        if key not in known:
            raise ValueError(
                f"unknown {kind} param {key!r} (known: {', '.join(known)})"
            )
    config = REGISTRY[kind].build_config(params)
    return JobSpec(
        kind=kind,
        config=config,
        tenant=tenant,
        priority=priority,
        jobs=jobs,
        supervise=supervise,
        show_transport=params.get("transport_faults") is not None,
    )
