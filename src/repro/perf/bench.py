"""The ``repro bench`` perf-regression harness.

Times the hot paths the repo's performance claims rest on —

* **policy kernels**: LPT, restricted CDP, chunked CDP, and CPLX-50
  placement at several problem sizes (the Fig. 7c axis);
* **mesh ops**: SFC block sort and vectorized neighbor discovery on a
  randomly refined octree, plus one small remesh cycle with its
  neighbor-graph rebuild (a regression tripwire);
* **scalebench metadata**: one sharded placement pass at beyond-paper
  rank counts (128K+), timing per-shard cost/SFC materialization and
  the streamed makespan reduction;
* **epoch loop**: the end-to-end :class:`~repro.engine.EpochEngine`
  over a reduced Sedov trajectory (a regression tripwire);
* **sweep executor**: a small Sedov sweep serial vs ``--jobs 4`` (the
  serial-vs-parallel headline; equal on a single-core host);
* **executor overhead**: the supervised pool vs the bare
  ``ProcessPoolExecutor`` on identical fault-free cells — the price of
  crash recovery, timeouts and quarantine when nothing goes wrong
  (bounded at ≤5% by :data:`DERIVED_BOUNDS`);
* **telemetry queries**: a selective planned query over a partitioned
  on-disk dataset (zone-map pruning + projection pushdown) vs the naive
  read-everything-then-filter scan, plus a full-dataset grouped
  aggregation (the Lesson-4 interactivity headline);

— and writes ``BENCH_core.json``: per-metric medians plus environment
metadata, with derived speedup ratios.  :func:`compare_bench` gates a
fresh run against a committed baseline with a configurable relative
tolerance and checks the absolute :data:`DERIVED_BOUNDS` on derived
ratios; the CI perf-smoke job fails when any tracked metric regresses
beyond the tolerance or any ratio leaves its bound.

Medians over several repeats (after a warmup) keep single-shot noise
out of the gate; wall-clock metrics are still machine-dependent, so
cross-machine comparisons need a generous tolerance while the derived
ratios travel well.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "PROFILES",
    "SECTIONS",
    "run_bench",
    "write_bench",
    "load_bench",
    "compare_bench",
    "format_bench",
    "DERIVED_BOUNDS",
]

#: Absolute bounds on derived ratios, as ``(op, bound)``.  They are
#: wall-clock ratios, so a busy neighbour process can break them: they
#: gate in :func:`compare_bench` (CI's perf-smoke job), not in unit tests.
DERIVED_BOUNDS: Dict[str, Tuple[str, float]] = {
    # supervision must cost <= 5% on fault-free sweeps vs the bare pool
    "executor.overhead_ratio": ("<=", 1.05),
    # the fsync'd JobStore must cost <= 10% on an end-to-end submit
    "service.jobstore_overhead_ratio": ("<=", 1.10),
    # zone-map pruning must beat the naive full scan by >= 2x
    "telemetry.pruning_speedup": (">=", 2.0),
}

#: Size knobs per profile.  ``smoke`` is for CI smoke jobs and tests
#: (seconds); ``quick`` is the default local profile (a couple of
#: minutes); ``full`` approaches paper-scale placement sizes.
PROFILES: Dict[str, Dict] = {
    "smoke": {
        "policy_ranks": (256,),
        "policy_repeats": 3,
        "hetero": {"ranks": (256,), "repeats": 3},
        "mesh_ranks": 128,
        "mesh_blocks_per_rank": 3.0,
        "mesh_repeats": 3,
        "epoch_ranks": 32,
        "epoch_steps": 120,
        "epoch_repeats": 2,
        "scalebench": {"ranks": 131072, "shard_ranks": 4096, "repeats": 1},
        "sweep": None,
        "executor": {"cells": 8, "jobs": 2, "repeats": 5, "work": 48},
        "telemetry": {"partitions": 12, "rows_per_partition": 4_000, "repeats": 3},
        "service": {
            "steps": 30, "policies": ("baseline",), "repeats": 2,
            "rpc_repeats": 50, "jobstore_steps": 120, "jobstore_pairs": 10,
        },
    },
    "quick": {
        "policy_ranks": (2048, 8192),
        "policy_repeats": 5,
        "hetero": {"ranks": (2048, 8192), "repeats": 5},
        "mesh_ranks": 512,
        "mesh_blocks_per_rank": 4.0,
        "mesh_repeats": 5,
        "epoch_ranks": 64,
        "epoch_steps": 400,
        "epoch_repeats": 3,
        "scalebench": {"ranks": 131072, "shard_ranks": 4096, "repeats": 2},
        "sweep": {
            "scales": (512,),
            "steps": 120,
            "policies": ("baseline", "cplx:50"),
            "jobs": 4,
        },
        "executor": {"cells": 16, "jobs": 4, "repeats": 3, "work": 48},
        "telemetry": {"partitions": 16, "rows_per_partition": 20_000, "repeats": 5},
        "service": {
            "steps": 80, "policies": ("baseline", "cplx:50"), "repeats": 3,
            "rpc_repeats": 100, "jobstore_steps": 160, "jobstore_pairs": 10,
        },
    },
    "full": {
        "policy_ranks": (8192, 32768),
        "policy_repeats": 7,
        "hetero": {"ranks": (8192, 32768), "repeats": 7},
        "mesh_ranks": 1024,
        "mesh_blocks_per_rank": 4.0,
        "mesh_repeats": 7,
        "epoch_ranks": 128,
        "epoch_steps": 1000,
        "epoch_repeats": 3,
        "scalebench": {"ranks": 1048576, "shard_ranks": 4096, "repeats": 1},
        "sweep": {
            "scales": (512, 1024),
            "steps": 400,
            "policies": ("baseline", "cplx:0", "cplx:50", "cplx:100"),
            "jobs": 4,
        },
        "executor": {"cells": 32, "jobs": 4, "repeats": 5, "work": 32},
        "telemetry": {"partitions": 32, "rows_per_partition": 50_000, "repeats": 5},
        "service": {
            "steps": 120, "policies": ("baseline", "cplx:0", "cplx:50"),
            "repeats": 3, "rpc_repeats": 200, "jobstore_steps": 240,
            "jobstore_pairs": 10,
        },
    },
}

#: Policies timed by the policy-kernel section (registry names).
POLICY_ARMS = ("lpt", "cdp", "cdp-chunked", "cplx:50")

BLOCKS_PER_RANK = 2.25      #: scalebench's blocks-per-rank ratio


def _summary(times: List[float]) -> Dict:
    """Median, min and mean of a case's timed repeats."""
    return {
        "median_s": statistics.median(times),
        "min_s": min(times),
        "mean_s": statistics.fmean(times),
        "repeats": len(times),
    }


def _timed(fn: Callable[[], object]) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _time_case(fn: Callable[[], object], repeats: int, warmup: int = 1) -> Dict:
    """Median-of-``repeats`` host seconds for ``fn`` (after warmup runs)."""
    for _ in range(warmup):
        fn()
    return _summary([_timed(fn) for _ in range(repeats)])


def _interleaved(a: Callable[[], object], b: Callable[[], object],
                 repeats: int) -> Tuple[Dict, Dict]:
    """Summaries of ``a`` and ``b`` timed in alternating rounds, so host
    drift (thermal, other tenants) lands on both sides rather than
    biasing one block."""
    rounds = [(_timed(a), _timed(b)) for _ in range(repeats)]
    return _summary([r[0] for r in rounds]), _summary([r[1] for r in rounds])


def _environment(profile: str) -> Dict:
    from .. import __version__

    return {
        "schema": 1,
        "profile": profile,
        "repro_version": __version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


# ---------------------------------------------------------------------- #
# sections
# ---------------------------------------------------------------------- #

def _bench_policies(
    params: Dict, metrics: Dict, derived: Dict, log: Callable[[str], None]
) -> None:
    from ..bench.distributions import make_costs
    from ..core.policy import get_policy

    repeats = params["policy_repeats"]
    for n_ranks in params["policy_ranks"]:
        n_blocks = int(n_ranks * BLOCKS_PER_RANK)
        for arm, name in enumerate(POLICY_ARMS):
            # One cost seed per call (warm-up included) and per arm: a call
            # on costs placed before would time a split memo hit, not the DP.
            draws = iter([
                make_costs(
                    "exponential", n_blocks,
                    seed=1234 + n_ranks + 7919 * (arm * (repeats + 1) + i),
                )
                for i in range(repeats + 1)
            ])
            policy = get_policy(name)
            key = name.replace(":", "")
            metric = f"policy.{key}.r{n_ranks}"
            metrics[metric] = _time_case(
                lambda: policy.place(next(draws), n_ranks), repeats
            )
            log(f"{metric}: {metrics[metric]['median_s'] * 1e3:.2f} ms")


def _bench_hetero(
    params: Dict, metrics: Dict, derived: Dict, log: Callable[[str], None]
) -> None:
    """Capacity-aware placement kernels on a skewed mixed cluster.

    Times the ``Q || C_max`` arms (hetero-lpt, hetero-cplx) with a
    25% fast / 75% reference hardware context — the heap-based
    earliest-finish greedy has a different complexity profile than the
    homogeneous LPT sort-and-push, so it gets its own gates.
    """
    from ..bench.distributions import make_costs
    from ..core.context import PlacementContext
    from ..core.policy import get_policy

    knobs = params["hetero"]
    for n_ranks in knobs["ranks"]:
        n_blocks = int(n_ranks * BLOCKS_PER_RANK)
        costs = make_costs("exponential", n_blocks, seed=4321 + n_ranks)
        speed = np.ones(n_ranks)
        speed[: n_ranks // 4] = 2.0
        ctx = PlacementContext(
            rank_speed=speed, rank_nic_gbps=np.full(n_ranks, 40.0)
        )
        for name in ("hetero-lpt", "hetero-cplx:50"):
            policy = get_policy(name)
            key = name.replace(":", "")
            metric = f"hetero.{key}.r{n_ranks}"
            metrics[metric] = _time_case(
                lambda: policy.place(costs, n_ranks, ctx=ctx),
                knobs["repeats"],
            )
            log(f"{metric}: {metrics[metric]['median_s'] * 1e3:.2f} ms")


def _bench_mesh(
    params: Dict, metrics: Dict, derived: Dict, log: Callable[[str], None]
) -> None:
    from ..bench.commbench import random_refined_mesh
    from ..mesh.neighbors import build_neighbor_graph
    from ..mesh.refinement import RefinementTags
    from ..mesh.sfc import key_first_children, sfc_sort_blocks

    rng = np.random.default_rng(7)
    mesh = random_refined_mesh(
        params["mesh_ranks"], params["mesh_blocks_per_rank"], rng
    )
    blocks = list(mesh.blocks)
    shuffled = [blocks[i] for i in rng.permutation(len(blocks))]
    n = len(blocks)

    metric = f"mesh.sfc_sort.n{n}"
    metrics[metric] = _time_case(
        lambda: sfc_sort_blocks(shuffled), params["mesh_repeats"]
    )
    log(f"{metric}: {metrics[metric]['median_s'] * 1e3:.2f} ms")

    metric = f"mesh.neighbor_graph.n{n}"
    metrics[metric] = _time_case(
        lambda: build_neighbor_graph(mesh.forest), params["mesh_repeats"]
    )
    log(f"{metric}: {metrics[metric]['median_s'] * 1e3:.2f} ms")

    # Remesh metadata: one refine-then-coarsen-back cycle of a single
    # block (the common driver case — a few tags per step on a large
    # mesh), each half followed by the neighbor-graph rebuild its
    # invalidation forces.  The warmup run absorbs any one-time 2:1
    # ripple refinements, after which the cycle is a fixed point of the
    # forest.
    refine = RefinementTags(refine=mesh.keys[mesh.levels() < mesh.forest.max_level][:1])
    back = RefinementTags(
        coarsen=key_first_children(refine.refine) + np.arange(1 << mesh.dim)
    )

    def cycle():
        mesh.remesh(refine)
        _ = mesh.neighbor_graph
        mesh.remesh(back)
        _ = mesh.neighbor_graph

    metric = f"mesh.remesh.n{n}"
    metrics[metric] = _time_case(cycle, params["mesh_repeats"])
    log(f"{metric}: {metrics[metric]['median_s'] * 1e3:.2f} ms")


def _bench_scalebench(
    params: Dict, metrics: Dict, derived: Dict, log: Callable[[str], None]
) -> None:
    """Sharded scalebench metadata path at beyond-paper rank counts.

    Times one :func:`~repro.bench.scalebench._place_sharded` pass —
    cost/SFC materialization, placement, and the streamed makespan
    reduction over every shard — and reports the peak per-shard metadata
    footprint as a fraction of the global table it replaces.
    """
    from ..bench.scalebench import ScalebenchConfig, _ScalebenchCell, _place_sharded
    from ..core.policy import get_policy

    sb = params["scalebench"]
    if sb is None:
        return
    config = ScalebenchConfig(
        scales=(sb["ranks"],), shard_ranks=sb["shard_ranks"]
    )
    cell = _ScalebenchCell(
        config=config, n_ranks=sb["ranks"], distribution="exponential", x=50.0
    )
    policy = get_policy("cplx:50")
    shard_ranks = config.effective_shard_ranks(cell.n_ranks)
    peak = {"bytes": 0}

    def run():
        _norm, _elapsed, peak_bytes = _place_sharded(
            policy, cell, config.seed + cell.n_ranks, shard_ranks
        )
        peak["bytes"] = peak_bytes

    metric = f"scalebench.metadata.r{sb['ranks'] // 1024}k"
    metrics[metric] = _time_case(run, sb["repeats"])
    # cost (float64) + sfc_id (int64) per block, as the global table
    # would materialize them in one shot.
    global_bytes = int(cell.n_ranks * config.blocks_per_rank) * 16
    derived["scalebench.shard_mem_frac"] = peak["bytes"] / global_bytes
    log(
        f"{metric}: {metrics[metric]['median_s']:.2f} s, peak shard "
        f"{peak['bytes'] / 2**20:.1f} MiB "
        f"({derived['scalebench.shard_mem_frac']:.4f} of global table)"
    )


def _bench_epoch_loop(
    params: Dict, metrics: Dict, derived: Dict, log: Callable[[str], None]
) -> None:
    from ..amr.driver import run_trajectory
    from ..core.policy import get_policy
    from ..engine.types import DriverConfig
    from ..resilience.experiment import small_workload
    from ..simnet.cluster import Cluster

    epochs = small_workload(params["epoch_ranks"], steps=params["epoch_steps"])
    cluster = Cluster(n_ranks=params["epoch_ranks"])
    config = DriverConfig(use_measured_costs=False, placement_charge_s=0.005)
    metrics["epoch.loop"] = _time_case(
        lambda: run_trajectory(get_policy("baseline"), epochs, cluster, config),
        params["epoch_repeats"],
    )
    log(f"epoch loop: {metrics['epoch.loop']['median_s']:.3f} s")


def _bench_sweep(
    params: Dict, metrics: Dict, derived: Dict, log: Callable[[str], None]
) -> None:
    sweep = params["sweep"]
    if sweep is None:
        return
    from ..bench.sedov_experiment import SedovSweepConfig, run_sedov_sweep
    from ..engine.types import DriverConfig

    config = SedovSweepConfig(
        scales=tuple(sweep["scales"]),
        policies=tuple(sweep["policies"]),
        steps=sweep["steps"],
        driver=DriverConfig(placement_charge_s=0.005),
    )
    jobs = sweep["jobs"]
    # One warmup run populates the per-process trajectory memo (which
    # forked workers inherit), so both timings measure the sweep itself
    # rather than one-time trajectory generation.
    serial = _time_case(lambda: run_sedov_sweep(config, jobs=1), repeats=1)
    sharded = _time_case(lambda: run_sedov_sweep(config, jobs=jobs), repeats=1)
    metrics["sweep.sedov_serial"] = serial
    metrics[f"sweep.sedov_jobs{jobs}"] = sharded
    derived["sweep.parallel_speedup"] = serial["median_s"] / sharded["median_s"]
    log(
        f"sedov sweep: serial {serial['median_s']:.2f} s, "
        f"jobs={jobs} {sharded['median_s']:.2f} s "
        f"({derived['sweep.parallel_speedup']:.2f}x on {os.cpu_count()} CPUs)"
    )


def _overhead_cell(args) -> float:
    """A deterministic tens-of-ms numpy cell for the executor benchmark.

    Top level so it pickles into worker processes; the seed is the cell
    index, so supervised and bare runs compute identical values.
    """
    index, work = args
    rng = np.random.default_rng(1000 + index)
    acc = 0.0
    for _ in range(work):
        m = rng.random((160, 160))
        acc += float(np.linalg.eigvalsh(m @ m.T)[-1])
    return acc


def _bench_executor(
    params: Dict, metrics: Dict, derived: Dict, log: Callable[[str], None]
) -> None:
    from .executor import _bare_pool_map
    from .supervisor import SupervisorConfig, supervised_map

    ep = params["executor"]
    cells = [(i, ep["work"]) for i in range(ep["cells"])]
    jobs, repeats = ep["jobs"], ep["repeats"]
    sup_cfg = SupervisorConfig(retries=0)

    def run_bare():
        return _bare_pool_map(_overhead_cell, cells, jobs)

    def run_sup():
        return supervised_map(_overhead_cell, cells, jobs, config=sup_cfg)

    # Sanity (and warmup): the supervised pool must merge the same
    # values in the same order — the determinism contract the overhead
    # is priced on.
    if run_sup().results != run_bare():
        raise RuntimeError("supervised/bare executor results diverged")
    bare, sup = _interleaved(run_bare, run_sup, repeats)
    key = f"c{len(cells)}j{jobs}"
    metrics[f"executor.bare_pool.{key}"] = bare
    metrics[f"executor.supervised.{key}"] = sup
    # min-of-repeats: the best case isolates fixed supervision cost from
    # scheduler noise, which medians on a loaded host do not.
    derived["executor.overhead_ratio"] = sup["min_s"] / bare["min_s"]
    log(
        f"executor ({len(cells)} cells, jobs={jobs}): bare "
        f"{bare['min_s'] * 1e3:.1f} ms, supervised {sup['min_s'] * 1e3:.1f} ms "
        f"({derived['executor.overhead_ratio']:.3f}x)"
    )


def _bench_telemetry(
    params: Dict, metrics: Dict, derived: Dict, log: Callable[[str], None]
) -> None:
    import tempfile

    from ..telemetry.columnar import ColumnTable, read_table
    from ..telemetry.dataset import TelemetryDataset
    from ..telemetry.query import Query

    tp = params["telemetry"]
    n_parts, rows = tp["partitions"], tp["rows_per_partition"]
    repeats = tp["repeats"]
    rng = np.random.default_rng(99)
    with tempfile.TemporaryDirectory(prefix="repro-bench-telemetry-") as tmp:
        ds = TelemetryDataset.create(tmp)
        for i in range(n_parts):
            steps = np.arange(i * rows, (i + 1) * rows, dtype=np.int64)
            ds.append(
                ColumnTable(
                    {
                        "step": steps,
                        "rank": steps % 64,
                        "compute_s": rng.random(rows),
                        "comm_s": rng.random(rows),
                    }
                ),
                label=f"epoch-{i}",
            )
        # Selective query: only the last partition's step range survives
        # pruning — the "what happened at the end of the run" question.
        lo = float((n_parts - 1) * rows)

        def pruned_query():
            return (
                Query(ds)
                .where("step", ">=", lo)
                .group_by("rank")
                .agg(("comm_s", "mean"))
                .run()
            )

        def full_scan():
            # The pre-pushdown strategy: decode every partition's full
            # payload, concatenate, then filter/aggregate in memory.
            tables = [read_table(p) for p in ds.partition_files()]
            t = tables[0]
            for other in tables[1:]:
                t = t.concat(other)
            return (
                Query(t)
                .where("step", ">=", lo)
                .group_by("rank")
                .agg(("comm_s", "mean"))
                .run()
            )

        def group_agg():
            return (
                Query(ds)
                .group_by("rank")
                .agg(("comm_s", "mean"), ("comm_s", "p95"))
                .run()
            )

        total = n_parts * rows
        metrics[f"telemetry.query_pruned.n{total}"] = _time_case(pruned_query, repeats)
        metrics[f"telemetry.query_fullscan.n{total}"] = _time_case(full_scan, repeats)
        metrics[f"telemetry.groupagg.n{total}"] = _time_case(group_agg, repeats)
        derived["telemetry.pruning_speedup"] = (
            metrics[f"telemetry.query_fullscan.n{total}"]["median_s"]
            / metrics[f"telemetry.query_pruned.n{total}"]["median_s"]
        )
        from ..telemetry.engine import ExecutionReport

        report = ExecutionReport()
        Query(ds).where("step", ">=", lo).group_by("rank").agg(
            ("comm_s", "mean")
        ).run(report)
        skipped = len(report.scans[0].partitions_pruned)
        derived["telemetry.partitions_pruned_frac"] = skipped / n_parts
        log(
            f"telemetry ({n_parts}x{rows} rows): pruned "
            f"{metrics[f'telemetry.query_pruned.n{total}']['median_s'] * 1e3:.2f} ms, "
            f"full scan "
            f"{metrics[f'telemetry.query_fullscan.n{total}']['median_s'] * 1e3:.2f} ms "
            f"({derived['telemetry.pruning_speedup']:.2f}x, "
            f"{skipped}/{n_parts} partitions pruned)"
        )


def _bench_service(
    params: Dict, metrics: Dict, derived: Dict, log: Callable[[str], None]
) -> None:
    """Price the job layer: spec dispatch vs the direct entry point, the
    socket round trip of the ``repro serve`` front end, and the durable
    write-ahead JobStore's tax on an end-to-end submit."""
    import asyncio
    import contextlib
    import tempfile
    import threading

    from ..bench.sedov_experiment import run_sedov_sweep
    from ..service import JobRunner, spec_from_params
    from ..service.client import ServiceClient
    from ..service.server import JobService, ServiceConfig

    sp = params["service"]
    repeats = sp["repeats"]
    spec = spec_from_params(
        "sedov",
        {"scales": [512], "steps": sp["steps"],
         "policies": list(sp["policies"])},
    )
    runner = JobRunner()

    def run_direct():
        return run_sedov_sweep(spec.config, jobs=1)

    def run_job():
        return runner.run(spec)

    # Warmup + sanity: the job layer is plumbing around the same entry
    # point, so its digest must match the direct sweep's.
    direct_digest = run_direct().digest()
    if run_job().digest != direct_digest:
        raise RuntimeError("job-layer digest diverged from direct sweep")
    direct, job = _interleaved(run_direct, run_job, repeats)
    key = f"s{sp['steps']}p{len(sp['policies'])}"
    metrics[f"service.direct_sweep.{key}"] = direct
    metrics[f"service.job_runner.{key}"] = job
    derived["service.runner_overhead_ratio"] = job["min_s"] / direct["min_s"]

    @contextlib.contextmanager
    def live_service(**config_kwargs):
        """A throwaway service on a background loop, shut down on exit."""
        service = JobService(ServiceConfig(port=0, **config_kwargs))
        loop = asyncio.new_event_loop()
        started = threading.Event()

        def body():
            asyncio.set_event_loop(loop)
            loop.run_until_complete(service.start())
            started.set()
            loop.run_until_complete(service.serve_forever())
            loop.run_until_complete(service.close())
            loop.close()

        thread = threading.Thread(target=body, daemon=True)
        thread.start()
        if not started.wait(10):
            raise RuntimeError("benchmark service did not start")
        try:
            yield service
        finally:
            with ServiceClient(*service.address) as c:
                c.shutdown()
            thread.join(timeout=10)

    # Socket round trip: a live service on a background loop, timed
    # pings over one connection — the per-verb protocol floor.
    with tempfile.TemporaryDirectory() as root:
        with live_service(journal_root=os.path.join(root, "svc")) as service:
            with ServiceClient(*service.address) as client:
                client.ping()  # warmup
                ping = _summary(
                    [_timed(client.ping) for _ in range(sp["rpc_repeats"])]
                )
    metrics["service.rpc_ping"] = ping

    # Durable-store tax: the same submit -> result round trips through
    # a live service with and without ``--state``.  The write-ahead
    # JobStore fsyncs a handful of per-job records on the transition
    # path; tests/test_perf_bench.py gates the end-to-end cost at
    # <= 1.10x the in-memory service.  Each sample is a *batch* of
    # jobs run serially (max_active=1), not a single job: individual
    # jobs are short enough that scheduler noise swamps the few-ms
    # record tax, so the estimator is *paired*: each sample runs one
    # job through each service back to back (near-identical host
    # conditions) and the derived ratio is the median of per-pair
    # ratios — drift cancels within a pair, the median kills outlier
    # pairs.  ``jobstore_steps`` sizes the jobs so the fixed per-job
    # tax is priced against a job of representative length.
    job_params = {"scales": [512], "steps": sp["jobstore_steps"],
                  "policies": list(sp["policies"])}

    def submit_and_wait(client: ServiceClient) -> float:
        t0 = time.perf_counter()
        job_id = client.submit("sedov", job_params, tenant="bench")
        client.result(job_id, timeout_s=600)
        return time.perf_counter() - t0

    inmem_times: List[float] = []
    store_times: List[float] = []
    with tempfile.TemporaryDirectory() as root:
        with live_service(
            journal_root=os.path.join(root, "svc-mem"),
        ) as plain, live_service(
            journal_root=os.path.join(root, "svc-dur"),
            state_dir=os.path.join(root, "state"),
        ) as durable:
            with ServiceClient(*plain.address) as c_mem, \
                    ServiceClient(*durable.address) as c_dur:
                submit_and_wait(c_mem)  # warmup both paths
                submit_and_wait(c_dur)
                for _ in range(sp["jobstore_pairs"]):
                    inmem_times.append(submit_and_wait(c_mem))
                    store_times.append(submit_and_wait(c_dur))
    inmem, store = _summary(inmem_times), _summary(store_times)
    jkey = f"s{sp['jobstore_steps']}p{len(sp['policies'])}"
    metrics[f"service.submit_inmem.{jkey}"] = inmem
    metrics[f"service.submit_jobstore.{jkey}"] = store
    derived["service.jobstore_overhead_ratio"] = statistics.median(
        s / m for m, s in zip(inmem_times, store_times)
    )
    log(
        f"service ({sp['steps']} steps, {len(sp['policies'])} policies): "
        f"direct {direct['min_s'] * 1e3:.1f} ms, "
        f"job layer {job['min_s'] * 1e3:.1f} ms "
        f"({derived['service.runner_overhead_ratio']:.3f}x); "
        f"rpc ping {ping['median_s'] * 1e6:.0f} us; "
        f"jobstore {store['median_s'] * 1e3:.1f} ms vs "
        f"in-memory {inmem['median_s'] * 1e3:.1f} ms "
        f"({derived['service.jobstore_overhead_ratio']:.3f}x median "
        f"of {sp['jobstore_pairs']} pairs)"
    )


# ---------------------------------------------------------------------- #
# entry points
# ---------------------------------------------------------------------- #

#: The single ordered registry of bench sections.  Every entry point —
#: the CLI ``repro bench``, the smoke tests, baseline refreshes — runs
#: exactly this list, so a kernel registered here shows up identically
#: everywhere; there is no second list to keep in sync.  Each section
#: has the uniform signature ``(params, metrics, derived, log)``.
SECTIONS: Tuple[Tuple[str, Callable], ...] = (
    ("policies", _bench_policies),
    ("hetero", _bench_hetero),
    ("mesh", _bench_mesh),
    ("scalebench", _bench_scalebench),
    ("epoch", _bench_epoch_loop),
    ("sweep", _bench_sweep),
    ("executor", _bench_executor),
    ("telemetry", _bench_telemetry),
    ("service", _bench_service),
)


def run_bench(
    profile: str = "quick", verbose: bool = False
) -> Dict:
    """Run the harness; returns the ``BENCH_core.json`` document."""
    if profile not in PROFILES:
        raise KeyError(f"unknown profile {profile!r}; have {sorted(PROFILES)}")
    params = PROFILES[profile]
    log: Callable[[str], None] = print if verbose else (lambda _msg: None)
    metrics: Dict[str, Dict] = {}
    derived: Dict[str, float] = {}
    for _name, section in SECTIONS:
        section(params, metrics, derived, log)
    return {"meta": _environment(profile), "metrics": metrics, "derived": derived}


def write_bench(result: Dict, path: "str | os.PathLike") -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def load_bench(path: "str | os.PathLike") -> Dict:
    with open(path) as fh:
        return json.load(fh)


def compare_bench(
    current: Dict, baseline: Dict, tolerance: float = 0.5
) -> List[str]:
    """Regressions of ``current`` vs ``baseline``: list of messages.

    A wall-clock metric regresses when its median exceeds the baseline
    median by more than ``tolerance`` (relative).  Metrics present in
    only one document are reported informationally by :func:`format_bench`
    but never gate.  A derived ratio of ``current`` regresses when it
    breaks its :data:`DERIVED_BOUNDS` entry, whatever the baseline and
    tolerance.  An empty list means the gate passes.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    regressions: List[str] = []
    derived = current.get("derived", {})
    for name, (op, bound) in sorted(DERIVED_BOUNDS.items()):
        value = derived.get(name)
        if value is None:
            continue
        if not (value <= bound if op == "<=" else value >= bound):
            regressions.append(f"{name}: {value:.3f} breaks the bound {op} {bound:g}")
    base_metrics = baseline.get("metrics", {})
    for name, cur in sorted(current.get("metrics", {}).items()):
        base = base_metrics.get(name)
        if base is None:
            continue
        cur_med, base_med = cur["median_s"], base["median_s"]
        if base_med <= 0:
            continue
        ratio = cur_med / base_med
        if ratio > 1.0 + tolerance:
            regressions.append(
                f"{name}: {cur_med * 1e3:.2f} ms vs baseline "
                f"{base_med * 1e3:.2f} ms ({ratio:.2f}x > "
                f"allowed {1.0 + tolerance:.2f}x)"
            )
    return regressions


def format_bench(result: Dict, baseline: Optional[Dict] = None) -> str:
    """Human-readable table of one bench document (vs optional baseline)."""
    lines = []
    meta = result.get("meta", {})
    lines.append(
        f"profile={meta.get('profile')}  repro={meta.get('repro_version')}  "
        f"python={meta.get('python')}  cpus={meta.get('cpu_count')}"
    )
    base_metrics = (baseline or {}).get("metrics", {})
    width = max((len(n) for n in result.get("metrics", {})), default=10)
    for name, m in sorted(result.get("metrics", {}).items()):
        row = f"{name:<{width}}  {m['median_s'] * 1e3:10.2f} ms"
        base = base_metrics.get(name)
        if base and base.get("median_s", 0) > 0:
            row += f"   ({m['median_s'] / base['median_s']:.2f}x vs baseline)"
        lines.append(row)
    for name, value in sorted(result.get("derived", {}).items()):
        lines.append(f"{name:<{width}}  {value:10.3f}")
    return "\n".join(lines)
