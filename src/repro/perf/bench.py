"""The ``repro bench`` perf-regression harness: kernel tripwires only.

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
* **telemetry queries**: a selective planned query over a partitioned
  on-disk dataset (zone-map pruning + projection pushdown) vs the naive
  read-everything-then-filter scan, plus a full-dataset grouped
  aggregation (the Lesson-4 interactivity headline);

— and writes ``BENCH_core.json``: per-metric medians plus environment
metadata, with derived ratios.  :func:`compare_bench` gates a fresh run
against a committed baseline with a configurable relative tolerance
and checks the absolute :data:`DERIVED_BOUNDS` on derived ratios; the
CI perf-smoke job fails when any tracked metric regresses beyond the
tolerance or any ratio leaves its bound.

Whole runs — sweeps, pools, service submits — are not timed here: on a
small shared host their wall clock measures neighbours and BLAS thread
contention as much as the program.  ``perfbench/`` measures them end to
end and per layer, and the fixed costs of supervision and of the
durable JobStore are pinned by counted work in the test suite (workers
built and cells assigned per fault-free sweep; record writes per job).

A small shared host runs in phases about 2x apart, each up to a few
seconds long, so each sample averages calls over a fixed wall budget
(:data:`SAMPLE_S`) and each kernel keeps its fastest of the profile's
``passes`` over all sections; smoke runs then repeat within about
1.15x on a 2-vCPU VM.  Wall-clock metrics are still machine-dependent,
so cross-machine comparisons need a generous tolerance while the
derived ratios (medians over passes) travel well.
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
    # zone-map pruning must beat the naive full scan by >= 2x
    "telemetry.pruning_speedup": (">=", 2.0),
}

#: Size knobs per profile.  ``smoke`` is for CI smoke jobs and tests
#: (seconds); ``quick`` is the default local profile (a couple of
#: minutes); ``full`` approaches paper-scale placement sizes.  The
#: ``*repeats`` knobs count each kernel's samples per pass.
PROFILES: Dict[str, Dict] = {
    "smoke": {
        "passes": 10,
        "policy_ranks": (256, 2048),
        "policy_repeats": 1,
        "hetero": {"ranks": (256,), "repeats": 1},
        "mesh_ranks": 128,
        "mesh_blocks_per_rank": 3.0,
        "mesh_repeats": 1,
        "epoch_ranks": 32,
        "epoch_steps": 120,
        "epoch_repeats": 1,
        "scalebench": {"ranks": 131072, "shard_ranks": 4096, "repeats": 1},
        "telemetry": {"partitions": 12, "rows_per_partition": 4_000, "repeats": 1},
    },
    "quick": {
        "passes": 2,
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
        "telemetry": {"partitions": 16, "rows_per_partition": 20_000, "repeats": 5},
    },
    "full": {
        "passes": 1,
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
        "telemetry": {"partitions": 32, "rows_per_partition": 50_000, "repeats": 5},
    },
}

#: Policies timed by the policy-kernel section (registry names).
POLICY_ARMS = ("lpt", "cdp", "cdp-chunked", "cplx:50")

BLOCKS_PER_RANK = 2.25      #: scalebench's blocks-per-rank ratio


#: Wall seconds of one timing sample: a kernel is called until the
#: sample has run this long (at least once), and the sample is the mean
#: time per call.
SAMPLE_S = 0.02


def _time_case(fn: Callable[[], object], repeats: int, warmup: int = 1) -> Dict:
    """Median, min and mean host seconds per call of ``fn`` over
    ``repeats`` samples of :data:`SAMPLE_S` each (after warmup runs)."""
    for _ in range(warmup):
        fn()
    times, calls = [], 0
    for _ in range(repeats):
        n, t0 = 1, time.perf_counter()
        fn()
        while (elapsed := time.perf_counter() - t0) < SAMPLE_S:
            fn()
            n += 1
        times.append(elapsed / n)
        calls += n
    return {
        "median_s": statistics.median(times),
        "min_s": min(times),
        "mean_s": statistics.fmean(times),
        "repeats": len(times),
        "calls": calls,
    }


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
        costs = make_costs(
            "exponential", int(n_ranks * BLOCKS_PER_RANK), seed=1234 + n_ranks
        )
        for name in POLICY_ARMS:
            policy = get_policy(name)
            key = name.replace(":", "")
            metric = f"policy.{key}.r{n_ranks}"
            metrics[metric] = _time_case(
                lambda: _cold_place(policy, costs, n_ranks), repeats
            )
            log(f"{metric}: {metrics[metric]['median_s'] * 1e3:.2f} ms")


def _cold_place(policy, costs: np.ndarray, n_ranks: int, ctx=None) -> None:
    """Place on an empty split memo, so a repeat times the DP, not a hit."""
    from ..core.chunked import cold_splits

    with cold_splits():
        policy.place(costs, n_ranks, ctx=ctx)


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
                lambda: _cold_place(policy, costs, n_ranks, ctx),
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
    ("telemetry", _bench_telemetry),
)


def run_bench(
    profile: str = "quick", verbose: bool = False
) -> Dict:
    """Run the harness; returns the ``BENCH_core.json`` document."""
    if profile not in PROFILES:
        raise KeyError(f"unknown profile {profile!r}; have {sorted(PROFILES)}")
    params = PROFILES[profile]
    log: Callable[[str], None] = print if verbose else (lambda _msg: None)
    best: Dict[str, Dict] = {}
    passes: List[Dict[str, float]] = []
    for i in range(params["passes"]):
        log(f"pass {i + 1}/{params['passes']}")
        metrics: Dict[str, Dict] = {}
        derived: Dict[str, float] = {}
        for _name, section in SECTIONS:
            section(params, metrics, derived, log)
        for name, m in metrics.items():
            if name not in best or m["median_s"] < best[name]["median_s"]:
                best[name] = m
        passes.append(derived)
    derived = {k: statistics.median(d[k] for d in passes) for k in passes[0]}
    return {"meta": _environment(profile), "metrics": best, "derived": derived}


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
