"""Executor for telemetry logical plans, with pushdown into storage.

The physical half of the lazy query layer (see
:mod:`repro.telemetry.plan`).  Given a plan tree the executor

* optimizes it (predicate + projection pushdown),
* **prunes dataset partitions** against their embedded zone maps — a
  partition whose min/max statistics prove no row can match is never
  opened beyond its header (the Lesson-4 ClickHouse/Parquet trick);
* reads only the columns the plan needs
  (``read_table(columns=...)`` seeks past the rest);
* fuses all filter predicates into one boolean mask per partition
  before any row materialization;
* evaluates group-by/aggregate with the vectorized ``reduceat``
  kernels, then sort and limit.

Execution is **bit-identical** to the historical eager path (read
everything, then filter/aggregate): pruning only ever skips partitions
that contribute no rows, and every surviving partition is re-filtered
with the exact predicates.  ``tests/test_telemetry_plan.py`` holds the
property tests that pin this parity.

:func:`explain` renders the optimized plan with the pruning decision —
partitions scanned vs skipped — using header-only statistics reads.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .columnar import ColumnTable, read_stats, read_table
from .plan import (
    Filter,
    GroupAgg,
    Limit,
    PlanNode,
    Project,
    Scan,
    Sort,
    optimize,
)

__all__ = [
    "AGGREGATES",
    "ExecutionReport",
    "ScanReport",
    "execute",
    "explain",
    "group_aggregate",
    "materialize",
    "source_columns",
]


# ---------------------------------------------------------------------- #
# aggregation kernels (group-sorted values + group start offsets)
# ---------------------------------------------------------------------- #


def _agg_quantile(q: float) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    def fn(sorted_vals: np.ndarray, starts: np.ndarray) -> np.ndarray:
        out = np.empty(starts.shape[0], dtype=np.float64)
        bounds = np.append(starts, sorted_vals.shape[0])
        for i in range(starts.shape[0]):
            out[i] = np.quantile(sorted_vals[bounds[i]:bounds[i + 1]], q)
        return out

    return fn


def _reduceat(op) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    def fn(sorted_vals: np.ndarray, starts: np.ndarray) -> np.ndarray:
        return op.reduceat(sorted_vals, starts)

    return fn


def _agg_mean(sorted_vals: np.ndarray, starts: np.ndarray) -> np.ndarray:
    sums = np.add.reduceat(sorted_vals, starts)
    counts = np.diff(np.append(starts, sorted_vals.shape[0]))
    return sums / counts


def _agg_count(sorted_vals: np.ndarray, starts: np.ndarray) -> np.ndarray:
    return np.diff(np.append(starts, sorted_vals.shape[0])).astype(np.int64)


def _agg_std(sorted_vals: np.ndarray, starts: np.ndarray) -> np.ndarray:
    bounds = np.append(starts, sorted_vals.shape[0])
    counts = np.diff(bounds).astype(np.float64)
    sums = np.add.reduceat(sorted_vals, starts)
    sqsums = np.add.reduceat(sorted_vals.astype(np.float64) ** 2, starts)
    var = np.maximum(sqsums / counts - (sums / counts) ** 2, 0.0)
    return np.sqrt(var)


#: name -> group-aggregation function over (group-sorted values, group starts)
AGGREGATES: Dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "sum": _reduceat(np.add),
    "min": _reduceat(np.minimum),
    "max": _reduceat(np.maximum),
    "mean": _agg_mean,
    "count": _agg_count,
    "std": _agg_std,
    "p50": _agg_quantile(0.50),
    "p95": _agg_quantile(0.95),
    "p99": _agg_quantile(0.99),
}


def group_aggregate(
    t: ColumnTable,
    keys: Sequence[str],
    aggs: Sequence[Tuple[str, str]],
) -> ColumnTable:
    """Vectorized group-by/aggregate (composite keys via lexsort).

    Empty ``keys`` aggregates the whole table into one row (zero rows in
    → zero rows out).  This is the exact kernel the eager ``Query.run``
    always used; it moved here so plans and the builder share one
    implementation.
    """
    if not aggs:
        raise ValueError("group_by requires at least one agg()")
    n = t.n_rows
    if keys:
        stacked = np.stack([t[c] for c in keys], axis=1)
        order = np.lexsort(tuple(t[c] for c in reversed(keys)))
        sorted_keys = stacked[order]
        change = np.ones(n, dtype=bool)
        if n > 1:
            change[1:] = np.any(sorted_keys[1:] != sorted_keys[:-1], axis=1)
        starts = np.nonzero(change)[0] if n else np.empty(0, dtype=np.int64)
        out: Dict[str, np.ndarray] = {
            c: sorted_keys[starts, i] for i, c in enumerate(keys)
        }
    else:
        order = np.arange(n)
        starts = np.zeros(1 if n else 0, dtype=np.int64)
        out = {}
    for col, fn in aggs:
        if fn not in AGGREGATES:
            raise ValueError(f"unknown aggregate {fn!r}; known: {sorted(AGGREGATES)}")
        vals = t[col][order].astype(np.float64, copy=False)
        name = f"{fn}_{col}"
        if n:
            out[name] = AGGREGATES[fn](vals, starts)
        else:
            out[name] = np.empty(0, dtype=np.float64)
    return ColumnTable(out)


# ---------------------------------------------------------------------- #
# execution reporting
# ---------------------------------------------------------------------- #


@dataclasses.dataclass
class ScanReport:
    """What one Scan actually touched (pruning observability)."""

    source: str
    partitions_total: int = 0
    partitions_scanned: List[str] = dataclasses.field(default_factory=list)
    partitions_pruned: List[str] = dataclasses.field(default_factory=list)
    columns_read: Optional[List[str]] = None
    rows_scanned: int = 0
    rows_out: int = 0


@dataclasses.dataclass
class ExecutionReport:
    """Per-scan touch statistics collected during one execution."""

    scans: List[ScanReport] = dataclasses.field(default_factory=list)


# ---------------------------------------------------------------------- #
# executor
# ---------------------------------------------------------------------- #


def _fused_mask(t: ColumnTable, predicates) -> np.ndarray:
    mask = np.ones(t.n_rows, dtype=bool)
    for p in predicates:
        mask &= p.mask(t)
    return mask


def _is_dataset(source) -> bool:
    return hasattr(source, "partition_files")


def _scan_read_columns(scan: Scan) -> Optional[Tuple[str, ...]]:
    """Columns the scan must physically read (projection ∪ predicates)."""
    if scan.columns is None:
        return None
    cols: Dict[str, None] = dict.fromkeys(scan.columns)
    for p in scan.predicates:
        cols[p.column] = None
    return tuple(cols)


def _exec_scan(scan: Scan, report: Optional[ExecutionReport]) -> ColumnTable:
    if not _is_dataset(scan.source):
        t: ColumnTable = scan.source
        sr = ScanReport(source=f"table rows={t.n_rows}", rows_scanned=t.n_rows)
        if scan.predicates:
            t = t.filter(_fused_mask(t, scan.predicates))
        if scan.columns is not None:
            t = t.select(list(scan.columns))
            sr.columns_read = list(scan.columns)
        sr.rows_out = t.n_rows
        if report is not None:
            report.scans.append(sr)
        return t

    source = scan.source
    read_cols = _scan_read_columns(scan)
    sr = ScanReport(
        source=str(getattr(source, "root", source)),
        columns_read=None if read_cols is None else list(read_cols),
    )
    pieces: List[ColumnTable] = []
    for path in source.partition_files():
        sr.partitions_total += 1
        stats = read_stats(path)
        if not all(p.might_match(stats) for p in scan.predicates):
            sr.partitions_pruned.append(path.name)
            continue
        t = read_table(path, columns=read_cols)
        sr.partitions_scanned.append(path.name)
        sr.rows_scanned += t.n_rows
        if scan.predicates:
            t = t.filter(_fused_mask(t, scan.predicates))
        pieces.append(t)
    if pieces:
        out = pieces[0]
        for t in pieces[1:]:
            out = out.concat(t)
    else:
        # Every partition pruned (or the dataset is empty): an empty
        # table with the dataset's schema, so downstream nodes behave
        # exactly as they would on an eagerly-read-then-filtered table.
        schema = source.schema()
        names = read_cols if read_cols is not None else tuple(schema)
        out = ColumnTable(
            {n: np.empty(0, dtype=schema.get(n, np.float64)) for n in names}
        )
    sr.rows_out = out.n_rows
    if report is not None:
        report.scans.append(sr)
    return out


def _execute(node: PlanNode, report: Optional[ExecutionReport]) -> ColumnTable:
    if isinstance(node, Scan):
        return _exec_scan(node, report)
    if isinstance(node, Filter):
        t = _execute(node.child, report)
        return t.filter(_fused_mask(t, node.predicates))
    if isinstance(node, Project):
        return _execute(node.child, report).select(list(node.columns))
    if isinstance(node, GroupAgg):
        return group_aggregate(_execute(node.child, report), node.keys, node.aggs)
    if isinstance(node, Sort):
        t = _execute(node.child, report)
        order = np.argsort(t[node.column], kind="stable")
        if node.desc:
            order = order[::-1]
        return t.filter(order)
    if isinstance(node, Limit):
        return _execute(node.child, report).head(node.n)
    raise TypeError(f"unknown plan node {type(node).__name__}")


def execute(
    plan: PlanNode,
    report: Optional[ExecutionReport] = None,
    *,
    optimized: bool = False,
) -> ColumnTable:
    """Optimize (unless already optimized) and run a plan.

    Pass an :class:`ExecutionReport` to observe which partitions and
    columns each scan touched.
    """
    if not optimized:
        plan = optimize(plan)
    return _execute(plan, report)


# ---------------------------------------------------------------------- #
# explain
# ---------------------------------------------------------------------- #


def _render(node: PlanNode, depth: int, lines: List[str]) -> None:
    pad = "  " * depth
    if isinstance(node, Scan):
        preds = ", ".join(p.describe() for p in node.predicates)
        cols = "all" if node.columns is None else f"[{', '.join(node.columns)}]"
        if _is_dataset(node.source):
            source = node.source
            scanned, pruned = [], []
            for path in source.partition_files():
                stats = read_stats(path)
                if all(p.might_match(stats) for p in node.predicates):
                    scanned.append(path.name)
                else:
                    pruned.append(path.name)
            lines.append(
                f"{pad}Scan dataset={getattr(source, 'root', source)} "
                f"columns={cols} predicates=[{preds}]"
            )
            total = len(scanned) + len(pruned)
            lines.append(
                f"{pad}  partitions: {len(scanned)} scanned, "
                f"{len(pruned)} pruned (of {total})"
            )
            if pruned:
                lines.append(f"{pad}  pruned: {', '.join(pruned)}")
        else:
            lines.append(
                f"{pad}Scan table rows={node.source.n_rows} "
                f"columns={cols} predicates=[{preds}]"
            )
        return
    if isinstance(node, Filter):
        lines.append(
            f"{pad}Filter {' AND '.join(p.describe() for p in node.predicates)}"
        )
    elif isinstance(node, Project):
        lines.append(f"{pad}Project [{', '.join(node.columns)}]")
    elif isinstance(node, GroupAgg):
        aggs = ", ".join(f"{fn}({col})" for col, fn in node.aggs)
        keys = ", ".join(node.keys) or "<global>"
        lines.append(f"{pad}GroupAgg keys=[{keys}] aggs=[{aggs}]")
    elif isinstance(node, Sort):
        lines.append(f"{pad}Sort {node.column}{' desc' if node.desc else ''}")
    elif isinstance(node, Limit):
        lines.append(f"{pad}Limit {node.n}")
    else:
        raise TypeError(f"unknown plan node {type(node).__name__}")
    _render(node.child, depth + 1, lines)


def explain(plan: PlanNode) -> str:
    """The optimized plan as text, annotated with the pruning decision.

    Pruning is decided from header-only statistics reads — no column
    payload is touched, so ``explain`` is cheap even on large datasets.
    """
    lines: List[str] = ["== optimized plan =="]
    _render(optimize(plan), 0, lines)
    return "\n".join(lines)


# ---------------------------------------------------------------------- #
# convenience entry points for analysis-layer consumers
# ---------------------------------------------------------------------- #


def source_columns(source) -> List[str]:
    """Column names a source can provide (table names or dataset schema)."""
    if _is_dataset(source):
        return list(source.schema())
    return list(source.names)


def materialize(source, columns: Optional[Sequence[str]] = None) -> ColumnTable:
    """Fetch a table from a table-or-dataset source, with pushdown.

    The one-liner every analysis consumer goes through: in-memory
    tables pass through (optionally projected, which is free — numpy
    columns are shared, not copied); datasets are scanned through the
    plan engine so only the requested column payloads are decoded.
    """
    if not _is_dataset(source):
        return source if columns is None else source.select(list(columns))
    node: PlanNode = Scan(source)
    if columns is not None:
        node = Project(node, tuple(columns))
    return execute(node)
