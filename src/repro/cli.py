"""Command-line interface: run the paper's experiments from a shell.

Subcommands mirror the evaluation section:

* ``sedov``      — the Fig. 6 policy sweep (+ Table I statistics)
* ``commbench``  — Fig. 7a round-latency locality sweep
* ``scalebench`` — Fig. 7b/7c makespan + overhead sweep
* ``tuning``     — the Figs. 1–3 case studies
* ``place``      — one placement computation on synthetic costs
* ``resilience`` — three-arm fault/mitigation experiment (checkpoint,
  restart, online eviction)
* ``policies``   — list registered placement policies
* ``bench``      — perf-regression harness (``BENCH_core.json``)
* ``query``      — SQL over an on-disk telemetry dataset (``--explain``
  shows the optimized plan and which partitions pruning skipped)
* ``serve``      — multi-tenant job service: the same experiments as
  ``sedov``/``scalebench``/``resilience``, submitted as JSON over a
  local socket with priorities, per-tenant quotas, live SQL progress
  queries, and cooperative cancellation (see ``docs/service.md``)

The sweep subcommands and the service share one execution path: each
subcommand builds a :class:`repro.service.JobSpec` and runs it through
a :class:`repro.service.JobRunner`; output is byte-identical to the
historical per-subcommand printing (pinned by the parity tests).

The sweep subcommands (``sedov``, ``scalebench``, ``resilience``) take
``--jobs N`` to shard their independent cells across a process pool
(``--jobs 0`` = one worker per CPU); results are bit-identical to the
default serial run.  They also take the supervised-executor flags —
``--timeout-s S`` (per-cell wall-clock kill + retry), ``--retries N``
(per-cell budget before quarantine), ``--journal DIR`` (crash-safe
sweep journal, also via ``$REPRO_SWEEP_JOURNAL``), and ``--resume``
(skip journaled cells after an interruption).  Any of them routes the
sweep through :mod:`repro.perf.supervisor`.

Examples::

    python -m repro sedov --scales 512 1024 --steps 1500 --jobs 4
    python -m repro place --policy cplx:50 --blocks 2048 --ranks 512
    python -m repro scalebench --scales 512 2048 8192
    python -m repro scalebench --jobs 4 --journal runs/journal --resume
    python -m repro bench --profile smoke --baseline benchmarks/BENCH_baseline.json
    python -m repro query runs/telemetry \\
        "SELECT rank, mean(comm_s) WHERE step >= 900 GROUP BY rank" --explain
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``repro`` CLI."""
    p = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Lessons from Profiling and Optimizing "
        "Placement in AMR Codes' (CLUSTER 2025)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_jobs(sp):
        sp.add_argument(
            "--jobs", type=int, default=1, metavar="N",
            help="worker processes for independent cells (0 = one per "
            "CPU; default 1 = serial; results are bit-identical)",
        )
        sp.add_argument(
            "--timeout-s", type=float, default=None, metavar="S",
            help="per-cell wall-clock timeout: a cell running longer is "
            "killed and retried (supervised executor)",
        )
        sp.add_argument(
            "--retries", type=int, default=None, metavar="N",
            help="per-cell retry budget before quarantine (default 2 "
            "when the supervised executor is active)",
        )
        sp.add_argument(
            "--journal", metavar="DIR", default=None,
            help="crash-safe sweep journal directory (also via "
            "$REPRO_SWEEP_JOURNAL); completed cells survive Ctrl-C / "
            "kill -9 and are skipped on --resume",
        )
        sp.add_argument(
            "--resume", action="store_true",
            help="resume an interrupted sweep from its journal "
            "(requires --journal or $REPRO_SWEEP_JOURNAL)",
        )

    s = sub.add_parser("sedov", help="Fig. 6 Sedov policy sweep")
    add_jobs(s)
    s.add_argument("--traj-cache", metavar="DIR", default=None,
                   help="on-disk cache directory for generated Sedov "
                   "trajectories (also via $REPRO_TRAJ_CACHE)")
    s.add_argument("--scales", type=int, nargs="+", default=[512])
    s.add_argument("--steps", type=int, default=1500)
    s.add_argument("--paper-scale", action="store_true",
                   help="full Table I configurations (slow)")
    s.add_argument("--policies", nargs="+",
                   default=["baseline", "cplx:0", "cplx:25", "cplx:50",
                            "cplx:75", "cplx:100"])
    s.add_argument("--profile", action="store_true",
                   help="print the per-phase time breakdown per arm")
    s.add_argument("--transport-faults", metavar="SPEC", default=None,
                   help="unreliable-fabric spec, e.g. "
                   "'loss=0.05,dup=0.01,reorder=0.02,retries=4,seed=7' "
                   "(keys: loss dup reorder reorder_delay timeout backoff "
                   "retries bad_link_factor seed)")
    s.add_argument("--node-classes", metavar="SPEC", default=None,
                   help="mixed-hardware cluster spec, e.g. "
                   "'fast:0.5x16,slow:1.0x48' (name:TIMExCOUNT[@NIC] "
                   "entries; TIME is a compute-time factor, counts are "
                   "node proportions)")

    c = sub.add_parser("commbench", help="Fig. 7a locality microbenchmark")
    c.add_argument("--ranks", type=int, default=512)
    c.add_argument("--meshes", type=int, default=5)
    c.add_argument("--rounds", type=int, default=50)

    b = sub.add_parser("scalebench", help="Fig. 7b/7c placement microbenchmark")
    add_jobs(b)
    b.add_argument("--scales", type=int, nargs="+", default=[512, 2048, 8192])
    b.add_argument("--repeats", type=int, default=3)
    b.add_argument("--distributions", nargs="+",
                   default=["exponential", "gaussian", "power-law"],
                   choices=["exponential", "gaussian", "power-law"])
    b.add_argument("--x-values", type=float, nargs="+",
                   default=[0.0, 25.0, 50.0, 75.0, 100.0],
                   help="CPLX X%% arms to evaluate")
    b.add_argument("--shard-ranks", type=int, default=0,
                   help="rank-window size for sharded block tables "
                   "(0 = auto: shard cells >= 16384 ranks into 4096-rank "
                   "windows; smaller cells keep the global path)")
    b.add_argument("--node-classes", metavar="SPEC", default=None,
                   help="mixed-hardware cluster spec, e.g. "
                   "'fast:0.5x16,slow:1.0x48'; switches the sweep to the "
                   "capacity-aware hetero-cplx arms and capacity-weighted "
                   "normalized makespan")

    sub.add_parser("tuning", help="Figs. 1-3 tuning case studies")

    pl = sub.add_parser("place", help="run one placement on synthetic costs")
    pl.add_argument("--policy", default="cplx:50")
    pl.add_argument("--blocks", type=int, default=1024)
    pl.add_argument("--ranks", type=int, default=512)
    pl.add_argument("--distribution", default="exponential",
                    choices=["exponential", "gaussian", "power-law"])
    pl.add_argument("--seed", type=int, default=0)

    r = sub.add_parser(
        "resilience",
        help="three-arm fault/mitigation experiment (healthy vs "
        "unmitigated vs resilient)",
    )
    add_jobs(r)
    r.add_argument("--ranks", type=int, default=256,
                   help="simulation ranks (multiple of 16)")
    r.add_argument("--steps", type=int, default=400)
    r.add_argument("--policy", default="lpt")
    r.add_argument("--seed", type=int, default=3)
    r.add_argument("--crash-step", type=int, default=90,
                   help="fail-stop crash step (-1 disables)")
    r.add_argument("--crash-node", type=int, default=3)
    r.add_argument("--throttle-step", type=int, default=120,
                   help="thermal-throttle onset step (-1 disables)")
    r.add_argument("--throttle-nodes", type=int, nargs="+", default=[5])
    r.add_argument("--throttle-factor", type=float, default=8.0)
    r.add_argument("--checkpoint-interval", type=int, default=2,
                   help="epochs between driver checkpoints")
    r.add_argument("--no-determinism-check", action="store_true",
                   help="skip the same-seed re-run")
    r.add_argument("--profile", action="store_true",
                   help="print the per-phase time breakdown per arm")
    r.add_argument("--transport-faults", metavar="SPEC", default=None,
                   help="unreliable-fabric spec for the faulty arms, e.g. "
                   "'loss=0.08,reorder=0.05,retries=2'")

    sub.add_parser("policies", help="list registered placement policies")

    bench = sub.add_parser(
        "bench", help="perf-regression harness (writes BENCH_core.json)"
    )
    bench.add_argument("--profile", default="quick",
                       choices=["smoke", "quick", "full"],
                       help="benchmark size (default: quick)")
    bench.add_argument("--output", default="BENCH_core.json", metavar="PATH",
                       help="where to write the results document")
    bench.add_argument("--baseline", default=None, metavar="PATH",
                       help="committed baseline to gate against")
    bench.add_argument("--tolerance", type=float, default=0.5,
                       help="allowed relative regression vs the baseline "
                       "median (default 0.5 = 50%%)")

    q = sub.add_parser(
        "query",
        help="run SQL over an on-disk telemetry dataset "
        "(partition pruning + column-selective reads)",
    )
    q.add_argument("dataset", metavar="DIR",
                   help="telemetry dataset directory (a TelemetryDataset, "
                   "e.g. written by TelemetrySpoolHook)")
    q.add_argument("statement", metavar="SQL",
                   help='e.g. "SELECT rank, mean(comm_s) WHERE step >= 900 '
                   'GROUP BY rank ORDER BY mean_comm_s DESC LIMIT 10"')
    q.add_argument("--explain", action="store_true",
                   help="print the optimized plan (with partitions "
                   "scanned/pruned) instead of executing")
    q.add_argument("--max-rows", type=int, default=40, metavar="N",
                   help="row budget for printed results (default 40)")

    sv = sub.add_parser(
        "serve",
        help="multi-tenant placement job service (line-delimited JSON "
        "over a local TCP socket)",
    )
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument("--port", type=int, default=7461,
                    help="listen port (0 = ephemeral, printed at start)")
    sv.add_argument("--journal-root", metavar="DIR", default=".repro-service",
                    help="per-job journals + cancel flags live here")
    sv.add_argument("--max-active", type=int, default=2,
                    help="concurrent running jobs across all tenants")
    sv.add_argument("--tenant-active", type=int, default=1,
                    help="concurrent running jobs per tenant")
    sv.add_argument("--max-queued", type=int, default=64,
                    help="admission limit on queued jobs overall")
    sv.add_argument("--tenant-queued", type=int, default=8,
                    help="admission limit on queued jobs per tenant")
    sv.add_argument("--traj-cache", metavar="DIR", default=None,
                    help="shared on-disk Sedov trajectory cache for all "
                    "tenants (LRU-pruned after each job)")
    sv.add_argument("--traj-cache-entries", type=int, default=32,
                    help="trajectory-cache LRU budget")
    sv.add_argument("--cancel-grace-s", type=float, default=30.0,
                    help="seconds in-flight cells may drain after cancel "
                    "before their workers are killed")
    sv.add_argument("--state", metavar="DIR", default=None,
                    help="durable job store: every lifecycle transition "
                    "is journaled here and a restart recovers queued and "
                    "mid-run jobs (resumed bit-identically)")
    sv.add_argument("--deadline-s", type=float, default=None,
                    help="default per-job wall-clock deadline in seconds "
                    "(a submit's own deadline_s overrides it)")
    sv.add_argument("--poison-threshold", type=int, default=3,
                    help="server crashes per spec content-hash before the "
                    "circuit breaker quarantines the spec as failed")
    return p


#: env fallback for ``--journal DIR``
JOURNAL_ENV = "REPRO_SWEEP_JOURNAL"


def _supervisor_config(args):
    """Build a :class:`SupervisorConfig` from the CLI flags.

    Returns ``None`` when no supervisor flag is set (the sweep keeps
    its historical bare execution path) and raises :class:`ValueError`
    for ``--resume`` without a journal.
    """
    import os

    from .perf.supervisor import SupervisorConfig

    journal = args.journal or os.environ.get(JOURNAL_ENV) or None
    if args.resume and journal is None:
        raise ValueError(
            "--resume requires --journal DIR (or $REPRO_SWEEP_JOURNAL)"
        )
    if args.timeout_s is None and args.retries is None and journal is None:
        return None
    kwargs = {}
    if args.retries is not None:
        kwargs["retries"] = args.retries
    return SupervisorConfig(
        timeout_s=args.timeout_s,
        journal_dir=journal,
        resume=args.resume,
        **kwargs,
    )


def _run_spec(kind: str, params: dict, args) -> int:
    """Shared sweep-subcommand body: build a spec, run it, print it.

    ``JobRunner.run`` returns the full report as one string whose bytes
    equal what the historical per-line printing produced (pinned by
    ``tests/test_cli_parity.py``), plus the experiment's exit code.
    """
    from .service import JobRunner, spec_from_params

    try:
        supervise = _supervisor_config(args)
        spec = spec_from_params(
            kind, params, jobs=args.jobs, supervise=supervise
        )
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = JobRunner().run(spec)
    sys.stdout.write(result.text)
    return result.exit_code


def _cmd_sedov(args) -> int:
    import os

    from .perf.trajcache import CACHE_ENV

    if args.traj_cache is not None:
        os.environ[CACHE_ENV] = args.traj_cache
    params = {
        "scales": args.scales,
        "policies": args.policies,
        "steps": args.steps,
        "paper_scale": args.paper_scale,
        "profile": args.profile,
        "transport_faults": args.transport_faults,
    }
    # Key present only when requested: existing homogeneous invocations
    # keep their historical params dict (and any derived journal keys).
    if args.node_classes is not None:
        params["node_classes"] = args.node_classes
    return _run_spec("sedov", params, args)


def _cmd_commbench(args) -> int:
    from .bench import CommbenchConfig, run_commbench

    r = run_commbench(
        CommbenchConfig(n_ranks=args.ranks, n_meshes=args.meshes,
                        n_rounds=args.rounds)
    )
    print(r.series())
    print(f"best X = {r.best_x():g}, discarded {r.discarded_rounds} rounds")
    return 0


def _cmd_scalebench(args) -> int:
    params = {
        "scales": args.scales,
        "repeats": args.repeats,
        "distributions": args.distributions,
        "x_values": args.x_values,
        "shard_ranks": args.shard_ranks,
    }
    if args.node_classes is not None:
        params["node_classes"] = args.node_classes
    return _run_spec("scalebench", params, args)


def _cmd_tuning(_args) -> int:
    from .bench import (
        correlation_study,
        reordering_study,
        spike_study,
        throttling_study,
    )

    t = throttling_study(n_ranks=256, n_steps=30)
    print(f"Fig 2  throttled sync {t['throttled']['sync_fraction']:.0%}, "
          f"recovery {t['speedup']['runtime_ratio']:.1f}x")
    c = correlation_study()
    print(f"Fig 1a correlation untuned {c['untuned']:+.2f} -> tuned {c['tuned']:+.2f}")
    s = spike_study()
    print(f"Fig 1b spikes {s['no_drain_queue']['spikes']:.0f} -> "
          f"{s['drain_queue']['spikes']:.0f} with drain queue "
          f"({s['no_drain_queue']['mean_sync_s'] / s['drain_queue']['mean_sync_s']:.1f}x "
          f"collective inflation removed)")
    for name, var in reordering_study():
        print(f"Fig 3  {name:22s} spread {var['across_rank_spread'] * 1e3:7.2f} ms  "
              f"jitter {var['mean_within_rank_jitter'] * 1e3:5.2f} ms")
    return 0


def _cmd_place(args) -> int:
    from .bench import make_costs
    from .core import contiguity_fraction, get_policy, load_stats

    costs = make_costs(args.distribution, args.blocks, seed=args.seed)
    result = get_policy(args.policy).place(costs, args.ranks)
    stats = load_stats(costs, result.assignment, args.ranks)
    print(f"policy      : {args.policy}")
    print(f"blocks/ranks: {args.blocks} / {args.ranks}")
    print(f"makespan    : {stats.makespan:.4f} (ideal {stats.mean:.4f}, "
          f"imbalance {stats.imbalance:.3f})")
    print(f"contiguity  : {contiguity_fraction(result.assignment):.3f}")
    print(f"elapsed     : {result.elapsed_s * 1e3:.2f} ms (budget 50 ms)")
    return 0


def _cmd_resilience(args) -> int:
    return _run_spec(
        "resilience",
        {
            "ranks": args.ranks,
            "steps": args.steps,
            "policy": args.policy,
            "seed": args.seed,
            "crash_step": args.crash_step,
            "crash_node": args.crash_node,
            "throttle_step": args.throttle_step,
            "throttle_nodes": args.throttle_nodes,
            "throttle_factor": args.throttle_factor,
            "transport_faults": args.transport_faults,
            "checkpoint_interval": args.checkpoint_interval,
            "check_determinism": not args.no_determinism_check,
            "profile": args.profile,
        },
        args,
    )


def _cmd_serve(args) -> int:
    import asyncio

    from .service.queue import QuotaConfig
    from .service.server import ServiceConfig, serve

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        journal_root=args.journal_root,
        quotas=QuotaConfig(
            max_active=args.max_active,
            max_active_per_tenant=args.tenant_active,
            max_queued=args.max_queued,
            max_queued_per_tenant=args.tenant_queued,
        ),
        traj_cache=args.traj_cache,
        traj_cache_entries=args.traj_cache_entries,
        cancel_grace_s=args.cancel_grace_s,
        state_dir=args.state,
        default_deadline_s=args.deadline_s,
        poison_threshold=args.poison_threshold,
    )
    try:
        return asyncio.run(serve(config))
    except KeyboardInterrupt:
        return 0


def _cmd_bench(args) -> int:
    from .perf.bench import (
        compare_bench,
        format_bench,
        load_bench,
        run_bench,
        write_bench,
    )

    result = run_bench(profile=args.profile, verbose=True)
    write_bench(result, args.output)
    baseline = load_bench(args.baseline) if args.baseline else None
    print()
    print(format_bench(result, baseline))
    print(f"\nwrote {args.output}")
    if baseline is None:
        return 0
    regressions = compare_bench(result, baseline, tolerance=args.tolerance)
    if regressions:
        print(f"\nPERF REGRESSIONS (tolerance {args.tolerance:.0%}):")
        for line in regressions:
            print(f"  {line}")
        return 1
    print(f"\nno regressions vs {args.baseline} (tolerance {args.tolerance:.0%})")
    return 0


def _cmd_query(args) -> int:
    from .telemetry.dataset import TelemetryDataset
    from .telemetry.query import sql_query

    try:
        ds = TelemetryDataset.open(args.dataset)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        q = sql_query(ds, args.statement)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.explain:
        print(q.explain())
        return 0
    result = q.run()
    print(result.pretty(max_rows=args.max_rows))
    print(f"({result.n_rows} rows)")
    return 0


def _cmd_policies(_args) -> int:
    from .core import available_policies

    for name in available_policies():
        print(name)
    print("cplx:<X>   (e.g. cplx:25 == the paper's CPL25)")
    return 0


_COMMANDS = {
    "sedov": _cmd_sedov,
    "commbench": _cmd_commbench,
    "scalebench": _cmd_scalebench,
    "tuning": _cmd_tuning,
    "place": _cmd_place,
    "resilience": _cmd_resilience,
    "policies": _cmd_policies,
    "bench": _cmd_bench,
    "query": _cmd_query,
    "serve": _cmd_serve,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
