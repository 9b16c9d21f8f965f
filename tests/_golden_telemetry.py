"""Frozen pre-plan-engine telemetry implementations (parity reference).

Verbatim copies of the eager ``Query.run`` and ``rankwise_variance``
as they existed before the lazy logical-plan refactor.  The property tests in ``test_telemetry_plan.py`` assert the
planned engine is *bit-identical* to these.  Never modernize this file —
its whole value is staying frozen.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.telemetry.columnar import ColumnTable


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


GOLDEN_AGGREGATES: Dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
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

_OPS: Dict[str, Callable[[np.ndarray, float], np.ndarray]] = {
    "==": lambda c, v: c == v,
    "!=": lambda c, v: c != v,
    "<": lambda c, v: c < v,
    "<=": lambda c, v: c <= v,
    ">": lambda c, v: c > v,
    ">=": lambda c, v: c >= v,
}


class GoldenQuery:
    """The pre-refactor eager ``Query``, frozen."""

    def __init__(self, table: ColumnTable) -> None:
        self.table = table
        self._mask: np.ndarray | None = None
        self._group: List[str] = []
        self._aggs: List[Tuple[str, str]] = []
        self._order: Tuple[str, bool] | None = None
        self._limit: int | None = None

    def where(self, column: str, op: str, value: float) -> "GoldenQuery":
        m = _OPS[op](self.table[column], value)
        self._mask = m if self._mask is None else (self._mask & m)
        return self

    def group_by(self, *columns: str) -> "GoldenQuery":
        self._group = list(columns)
        return self

    def agg(self, *specs: Tuple[str, str]) -> "GoldenQuery":
        self._aggs.extend(specs)
        return self

    def order_by(self, column: str, desc: bool = False) -> "GoldenQuery":
        self._order = (column, desc)
        return self

    def limit(self, n: int) -> "GoldenQuery":
        self._limit = n
        return self

    def run(self) -> ColumnTable:
        t = self.table if self._mask is None else self.table.filter(self._mask)
        if self._group or self._aggs:
            t = self._grouped(t)
        if self._order is not None:
            col, desc = self._order
            order = np.argsort(t[col], kind="stable")
            if desc:
                order = order[::-1]
            t = t.filter(order)
        if self._limit is not None:
            t = t.head(self._limit)
        return t

    def _grouped(self, t: ColumnTable) -> ColumnTable:
        if not self._aggs:
            raise ValueError("group_by requires at least one agg()")
        n = t.n_rows
        if self._group:
            keys = np.stack([t[c] for c in self._group], axis=1)
            order = np.lexsort(tuple(t[c] for c in reversed(self._group)))
            sorted_keys = keys[order]
            change = np.ones(n, dtype=bool)
            if n > 1:
                change[1:] = np.any(sorted_keys[1:] != sorted_keys[:-1], axis=1)
            starts = np.nonzero(change)[0] if n else np.empty(0, dtype=np.int64)
            out: Dict[str, np.ndarray] = {
                c: sorted_keys[starts, i] for i, c in enumerate(self._group)
            }
        else:
            order = np.arange(n)
            starts = np.zeros(1 if n else 0, dtype=np.int64)
            out = {}
        for col, fn in self._aggs:
            vals = t[col][order].astype(np.float64, copy=False)
            name = f"{fn}_{col}"
            if n:
                out[name] = GOLDEN_AGGREGATES[fn](vals, starts)
            else:
                out[name] = np.empty(0, dtype=np.float64)
        return ColumnTable(out)


def golden_rankwise_variance(table: ColumnTable, col: str = "comm_s") -> Dict[str, float]:
    """The pre-refactor eager ``rankwise_variance``, frozen."""
    ranks = table["rank"]
    vals = table[col].astype(np.float64)
    order = np.argsort(ranks, kind="stable")
    r_sorted, v_sorted = ranks[order], vals[order]
    change = np.ones(r_sorted.shape[0], dtype=bool)
    change[1:] = r_sorted[1:] != r_sorted[:-1]
    starts = np.nonzero(change)[0]
    bounds = np.append(starts, r_sorted.shape[0])
    counts = np.diff(bounds).astype(np.float64)
    sums = np.add.reduceat(v_sorted, starts)
    sqsums = np.add.reduceat(v_sorted**2, starts)
    means = sums / counts
    jitter = np.sqrt(np.maximum(sqsums / counts - means**2, 0.0))
    return {
        "across_rank_std": float(means.std()),
        "across_rank_spread": float(means.max() - means.min()) if means.size else 0.0,
        "mean_within_rank_jitter": float(jitter.mean()) if jitter.size else 0.0,
        "mean": float(means.mean()) if means.size else 0.0,
    }
