"""scalebench: placement quality and overhead vs scale (Fig. 7b/7c).

Evaluates policies at 512 ranks – 1M ranks with ~2 blocks per rank (the
paper uses 1–2; a non-integer 2.25 keeps the restricted CDP's
floor/ceil choice meaningful) under the three synthetic cost
distributions.  Reports:

* **normalized makespan** — per-rank max load divided by the ``total/r``
  area bound (Fig. 7b; lower is better, 1.0 is ideal);
* **placement computation time** vs scale (Fig. 7c; the 50 ms budget).

No mesh or network is needed — scalebench measures the placement
algorithms themselves.

Beyond the paper's 128K-rank ceiling the global block table itself
becomes the bottleneck, so large cells run *sharded*: policy input
(costs, SFC ids) is materialized one contiguous rank window at a time
through a :class:`~repro.mesh.sharding.ShardedBlockTable` and each
shard is placed independently — peak metadata memory scales with the
shard size, not the global rank count.  Placement within a shard is
exactly the global algorithm at shard scale (CPLX's chunked CDP already
partitions by SFC windows, so sharding composes with, rather than
changes, the policy).  A cell whose rank count fits comfortably in one
allocation keeps the historical single-shot path — and its digests.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.metrics import load_stats, normalized_makespan
from ..core.policy import get_policy
from ..perf.supervisor import (
    STRICT,
    CellFailure,
    SupervisedReport,
    SupervisorConfig,
    supervised_map,
)
from .distributions import COST_DISTRIBUTIONS, make_costs
from .reporting import cplx_label, format_table

__all__ = [
    "AUTO_SHARD_MIN_RANKS",
    "AUTO_SHARD_RANKS",
    "ScalebenchConfig",
    "ScalebenchRow",
    "ScalebenchResult",
    "hetero_ucurve_table",
    "run_scalebench",
    "run_scalebench_supervised",
    "scalebench_digest",
]


#: cells at or above this many ranks auto-shard their block tables
AUTO_SHARD_MIN_RANKS = 16384
#: rank-window size used when auto-sharding kicks in
AUTO_SHARD_RANKS = 4096


@dataclasses.dataclass(frozen=True)
class ScalebenchConfig:
    """Parameters of one scalebench sweep.

    ``shard_ranks`` controls the sharded block-table path: ``0`` (the
    default) shards cells of :data:`AUTO_SHARD_MIN_RANKS` ranks or more
    into :data:`AUTO_SHARD_RANKS`-rank windows and leaves smaller cells
    on the historical global path; a positive value forces that window
    size for every cell.  A cell whose window covers all its ranks is
    bit-identical to the global path.

    ``node_classes`` (e.g. ``"fast:0.5x16,slow:1.0x48"``, see
    :func:`repro.simnet.cluster.parse_node_classes`) switches the sweep
    to mixed hardware: each cell builds the corresponding heterogeneous
    cluster, places with the capacity-aware ``hetero-cplx:X`` arm, and
    reports the *capacity-weighted* normalized makespan — so 1.0 still
    means perfectly balanced for that hardware mix, and the U-curve
    across X stays directly comparable to the homogeneous sweep.
    ``None`` (the default) keeps the historical sweep bit for bit.
    """

    scales: Tuple[int, ...] = (512, 2048, 8192)
    x_values: Tuple[float, ...] = (0.0, 25.0, 50.0, 75.0, 100.0)
    distributions: Tuple[str, ...] = ("exponential", "gaussian", "power-law")
    blocks_per_rank: float = 2.25
    repeats: int = 3
    seed: int = 0
    shard_ranks: int = 0
    node_classes: Optional[str] = None

    def __post_init__(self) -> None:
        unknown = set(self.distributions) - set(COST_DISTRIBUTIONS)
        if unknown:
            raise ValueError(f"unknown distributions: {sorted(unknown)}")
        if self.shard_ranks < 0:
            raise ValueError("shard_ranks must be >= 0 (0 = auto)")
        if self.node_classes is not None:
            from ..simnet.cluster import parse_node_classes

            parse_node_classes(self.node_classes)  # fail fast on bad specs
        for x in self.x_values:
            get_policy(f"cplx:{x}")  # fail fast on X outside [0, 100]

    def effective_shard_ranks(self, n_ranks: int) -> Optional[int]:
        """Rank-window size for one cell, or ``None`` for the global path."""
        if self.shard_ranks > 0:
            return min(self.shard_ranks, n_ranks)
        if n_ranks >= AUTO_SHARD_MIN_RANKS:
            return min(AUTO_SHARD_RANKS, n_ranks)
        return None


@dataclasses.dataclass
class ScalebenchRow:
    """One (scale, distribution, X) measurement."""

    n_ranks: int
    distribution: str
    x: float
    norm_makespan: float       #: mean over repeats (Fig. 7b)
    placement_s: float         #: mean placement computation time (Fig. 7c)

    @property
    def label(self) -> str:
        return cplx_label(self.x)


@dataclasses.dataclass(frozen=True)
class _ScalebenchCell:
    """One independent (scale, distribution, X) cell of a scalebench run."""

    config: ScalebenchConfig
    n_ranks: int
    distribution: str
    x: float


def _shard_seed(base_seed: int, shard: int) -> int:
    """Per-shard cost-stream seed; shard 0 reuses the global seed so a
    one-shard cell draws exactly the global cost array."""
    return base_seed + 104729 * shard


def _cell_context(cell: "_ScalebenchCell"):
    """The cell's :class:`PlacementContext`, or ``None`` (homogeneous)."""
    if cell.config.node_classes is None:
        return None
    from ..simnet.cluster import hetero_cluster

    return hetero_cluster(cell.n_ranks, cell.config.node_classes).placement_context()


def _place_sharded(
    policy, cell: "_ScalebenchCell", base_seed: int, shard_ranks: int, ctx=None
) -> Tuple[float, float, int]:
    """One repeat of one cell through the sharded block-table path.

    Materializes policy input one rank window at a time via
    :class:`~repro.mesh.sharding.ShardedBlockTable` and streams the
    makespan reduction, so peak metadata memory is O(shard blocks).
    Returns ``(normalized makespan, placement seconds, peak shard
    bytes)``; with one shard the result is bit-identical to the global
    path.
    """
    from ..mesh.sharding import ShardedBlockTable

    config = cell.config
    n_ranks = cell.n_ranks
    rank_bounds = list(range(0, n_ranks, shard_ranks)) + [n_ranks]
    block_bounds = [int(r * config.blocks_per_rank) for r in rank_bounds]
    table = ShardedBlockTable(
        block_bounds[-1],
        bounds=block_bounds,
        columns={
            "cost": lambda s, lo, hi: make_costs(
                cell.distribution, hi - lo, seed=_shard_seed(base_seed, s)
            ),
            "sfc_id": lambda s, lo, hi: np.arange(lo, hi, dtype=np.int64),
        },
    )
    max_load = 0.0
    total = 0.0
    elapsed = 0.0
    for s in range(table.n_shards):
        cols = table.materialize(s)
        costs = cols["cost"]
        lo, hi = rank_bounds[s], rank_bounds[s + 1]
        ranks_s = hi - lo
        sub_ctx = None if ctx is None else ctx.slice(lo, hi)
        result = policy.place(costs, ranks_s, ctx=sub_ctx)
        # with a context, loads are completion times over the window's speeds
        stats = load_stats(costs, result.assignment, ranks_s, ctx=sub_ctx)
        max_load = max(max_load, stats.makespan)
        total += float(costs.sum())
        elapsed += result.elapsed_s
    denom = n_ranks if ctx is None else ctx.total_capacity()
    norm = max_load / (total / denom) if total > 0 else 1.0
    return norm, elapsed, table.peak_shard_bytes


def _run_scalebench_cell(cell: _ScalebenchCell) -> ScalebenchRow:
    """Execute one cell; the cost seed is derived from the cell alone."""
    config = cell.config
    n_blocks = int(cell.n_ranks * config.blocks_per_rank)
    ctx = _cell_context(cell)
    policy = get_policy(
        f"cplx:{cell.x}" if ctx is None else f"hetero-cplx:{cell.x}"
    )
    shard_ranks = config.effective_shard_ranks(cell.n_ranks)
    ms = []
    ts = []
    for rep in range(config.repeats):
        base_seed = config.seed + 7919 * rep + cell.n_ranks
        if shard_ranks is None:
            costs = make_costs(cell.distribution, n_blocks, seed=base_seed)
            result = policy.place(costs, cell.n_ranks, ctx=ctx)
            ms.append(
                normalized_makespan(costs, result.assignment, cell.n_ranks, ctx=ctx)
            )
            ts.append(result.elapsed_s)
        else:
            norm, elapsed, _peak = _place_sharded(
                policy, cell, base_seed, shard_ranks, ctx=ctx
            )
            ms.append(norm)
            ts.append(elapsed)
    return ScalebenchRow(
        n_ranks=cell.n_ranks,
        distribution=cell.distribution,
        x=cell.x,
        norm_makespan=float(np.mean(ms)),
        placement_s=float(np.mean(ts)),
    )


def run_scalebench(config: ScalebenchConfig, jobs: int = 1) -> List[ScalebenchRow]:
    """Run the sweep; returns one row per (scale, distribution, X).

    ``jobs`` shards the independent cells across a process pool
    (``jobs=0`` = one worker per CPU); the row order and every
    assignment-derived value are identical to the serial run (placement
    times are host measurements and vary run to run either way).  The
    first failing cell raises
    :class:`~repro.perf.executor.CellExecutionError`.
    """
    return run_scalebench_supervised(config, jobs).rows


@dataclasses.dataclass
class ScalebenchResult:
    """A supervised scalebench run: surviving rows + the fault record."""

    rows: List[ScalebenchRow]
    #: quarantined cells (empty when every cell succeeded)
    failures: List[CellFailure]
    executor: SupervisedReport

    def digest(self) -> str:
        return scalebench_digest(self.rows)


def scalebench_digest(rows: Sequence[ScalebenchRow]) -> str:
    """SHA-256 over the deterministic row values (placement times are
    host measurements and are excluded), for resume-equivalence checks."""
    h = hashlib.sha256()
    for r in rows:
        h.update(
            f"{r.n_ranks}|{r.distribution}|{r.x!r}|{r.norm_makespan!r}\n".encode()
        )
    return h.hexdigest()


def run_scalebench_supervised(
    config: ScalebenchConfig,
    jobs: int = 1,
    supervise: Optional[SupervisorConfig] = None,
    on_event=None,
) -> ScalebenchResult:
    """:func:`run_scalebench` on the supervised executor.

    Crashed/hung/flaky cells are retried and quarantined per the
    supervisor config instead of aborting the sweep; with a journal
    configured the run is resumable after Ctrl-C / ``kill -9``, and the
    surviving rows (and their :func:`scalebench_digest`) are
    bit-identical to an uninterrupted serial run.  Without
    ``supervise`` the sweep runs under
    :data:`~repro.perf.supervisor.STRICT`, like the other experiments:
    the first failing cell raises.
    """
    cells = [
        _ScalebenchCell(config=config, n_ranks=n_ranks, distribution=dist, x=x)
        for n_ranks in config.scales
        for dist in config.distributions
        for x in config.x_values
    ]
    report = supervised_map(
        _run_scalebench_cell, cells, jobs, config=supervise or STRICT,
        on_event=on_event,
    )
    return ScalebenchResult(
        rows=[r for r in report.results if not isinstance(r, CellFailure)],
        failures=report.failures,
        executor=report,
    )


def makespan_table(rows: Sequence[ScalebenchRow]) -> str:
    """Fig. 7b as text: normalized makespan by (distribution, X)."""
    dists = sorted({r.distribution for r in rows})
    xs = sorted({r.x for r in rows})
    out = []
    for n_ranks in sorted({r.n_ranks for r in rows}):
        body = []
        for d in dists:
            vals = {
                r.x: r.norm_makespan
                for r in rows
                if r.n_ranks == n_ranks and r.distribution == d
            }
            body.append([d] + [round(vals[x], 4) for x in xs])
        out.append(
            format_table(
                ["distribution"] + [cplx_label(x) for x in xs],
                body,
                title=f"normalized makespan @ {n_ranks} ranks",
            )
        )
    return "\n\n".join(out)


def hetero_ucurve_table(rows: Sequence[ScalebenchRow], node_classes: str) -> str:
    """Does the paper's U-curve in X survive heterogeneity? (text report)

    For each (scale, distribution) the sweep's capacity-weighted
    normalized makespan is minimized at some X*; the paper's
    homogeneous result (Fig. 7b) is an *interior* optimum — locality-
    destroying full rebalance (X=100) and pure contiguous placement
    (X=0) both lose to a mix.  This table reports X* per cell on the
    mixed-hardware cluster and whether the optimum stayed interior
    ("U survives") or collapsed to an endpoint.
    """
    xs = sorted({r.x for r in rows})
    if len(xs) < 3:
        return f"hetero U-curve: need >= 3 X values to assess (classes={node_classes})"
    body = []
    for n_ranks in sorted({r.n_ranks for r in rows}):
        for d in sorted({r.distribution for r in rows if r.n_ranks == n_ranks}):
            vals = {
                r.x: r.norm_makespan
                for r in rows
                if r.n_ranks == n_ranks and r.distribution == d
            }
            if set(xs) - set(vals):
                continue
            best_x = min(xs, key=lambda x: vals[x])
            interior = xs[0] < best_x < xs[-1]
            body.append(
                [
                    n_ranks,
                    d,
                    cplx_label(best_x),
                    round(vals[best_x], 4),
                    round(vals[xs[0]], 4),
                    round(vals[xs[-1]], 4),
                    "yes" if interior else "no",
                ]
            )
    return format_table(
        [
            "ranks",
            "distribution",
            "best",
            "best norm-mk",
            cplx_label(xs[0]),
            cplx_label(xs[-1]),
            "U survives",
        ],
        body,
        title=f"U-curve under heterogeneity (node classes: {node_classes})",
    )


def overhead_table(rows: Sequence[ScalebenchRow]) -> str:
    """Fig. 7c as text: mean placement time (ms) by scale and X."""
    xs = sorted({r.x for r in rows})
    body = []
    for n_ranks in sorted({r.n_ranks for r in rows}):
        means = []
        for x in xs:
            sel = [r.placement_s for r in rows if r.n_ranks == n_ranks and r.x == x]
            means.append(round(float(np.mean(sel)) * 1e3, 3))
        body.append([n_ranks] + means)
    return format_table(
        ["ranks"] + [cplx_label(x) for x in xs],
        body,
        title="placement computation time (ms)",
    )
