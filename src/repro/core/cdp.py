"""Contiguous-DP (CDP) placement (paper §V-C).

CDP keeps the baseline's locality (contiguous SFC ranges per rank) but
chooses the *range boundaries* to minimize makespan.  Formally: given
block costs ``w_1..w_n`` in SFC order, partition them into ``r``
contiguous segments minimizing the maximum segment sum.

Three solvers are provided:

* :func:`cdp_restricted` — the paper's production variant: only chunk
  sizes ``ceil(n/r)`` and ``floor(n/r)`` are considered, giving an
  ``O(n·r)``-bounded DP (actually ``O(r · (n mod r))``) that is optimal
  *within the explored chunk sizes*.  It is the one-zone call of
  :func:`cdp_restricted_zones`, which solves many independent zones
  (chunked CDP's) in one vectorized row loop per floor size: one row
  per rank of the largest zone, four ufunc calls per row over a
  ``(zones, e + 1)`` state, then a scalar backtrack of one step per
  rank, so the ufunc count does not grow with the zone count.
* :func:`cdp_full` — the unrestricted ``O(n^2 r)`` DP; exact but too slow
  for large meshes.  Kept for the ablation of the restriction.
* :func:`cdp_optimal_makespan` — exact optimal contiguous makespan via
  parametric binary search with a greedy feasibility check,
  ``O(n log(W/eps))``; used to verify both DPs in tests.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .baseline import assignment_from_counts
from .context import PlacementContext
from .policy import PlacementPolicy, register_policy

__all__ = [
    "CDPPolicy",
    "CDPFullPolicy",
    "cdp_restricted",
    "cdp_restricted_zones",
    "cdp_full",
    "cdp_optimal_makespan",
    "counts_makespan",
]


def counts_makespan(costs: np.ndarray, counts: np.ndarray) -> float:
    """Makespan (max segment cost) of a contiguous split given counts."""
    counts = np.asarray(counts, dtype=np.int64)
    if int(counts.sum()) != costs.shape[0]:
        raise ValueError("counts do not sum to the number of blocks")
    bounds = np.concatenate([[0], np.cumsum(counts)])
    prefix = np.concatenate([[0.0], np.cumsum(costs)])
    seg = prefix[bounds[1:]] - prefix[bounds[:-1]]
    return float(seg.max()) if seg.size else 0.0


def cdp_restricted(costs: np.ndarray, n_ranks: int) -> np.ndarray:
    """Restricted CDP: per-rank counts limited to {floor(n/r), ceil(n/r)}.

    Returns per-rank contiguous *counts* (not an assignment): the
    one-zone call of :func:`cdp_restricted_zones`.
    """
    if n_ranks < 1:
        raise ValueError("n_ranks must be >= 1")
    return cdp_restricted_zones(costs, [(0, int(costs.shape[0]), 0, n_ranks)])


def cdp_restricted_zones(
    costs: np.ndarray, zones: Sequence[Tuple[int, int, int, int]]
) -> np.ndarray:
    """Restricted CDP solved independently on every zone, in one row loop
    per floor size.

    ``zones`` are ``(block_lo, block_hi, rank_lo, rank_hi)`` half-open
    ranges with contiguous, ascending rank ranges (the output of
    :func:`repro.core.chunked.zone_ranges`).  Returns the per-rank
    counts of all zones, concatenated; each zone's counts equal
    ``cdp_restricted(costs[block_lo:block_hi], rank_hi - rank_lo)``
    float for float.

    A zone with ``n`` blocks on ``r`` ranks has ``f, e = divmod(n, r)``;
    ``e == 0`` leaves one legal split.  Otherwise the DP state after
    ``k`` ranks is ``j``, the number of ceil segments used so far, so
    rank ``k`` starts at block ``k*f + j`` and the state vector has
    ``e + 1`` entries.  Zones of one ``f`` advance together in a
    ``(zones, max e + 1)`` state, right-aligned so that every zone ends
    on the last row: a zone with fewer ranks starts later, and its
    leading rows carry a floor segment of ``-inf`` and a ceil segment of
    ``+inf``, which leave its state unchanged.  Segment costs are
    differences of each zone's prefix sum ``p``, ``p[k + f] - p[k]``
    (floor) and ``p[k + f + 1] - p[k]`` (ceil), computed once into a
    row of two buffers; row ``t`` reads a view of columns ``t*f``
    onwards, or a masked copy while some zone has not started.  Each
    row costs four ufunc calls (floor candidate, ceil candidate, the
    strict ``ceil < floor`` choice, and their minimum as the new state,
    which is the ceil candidate exactly where the choice took it), so
    the ufunc count is ``O(max r)`` per floor size however many zones
    run; the arithmetic is ``O(zones * max r * max e)``.  The choices
    are then walked back one zone at a time with Python ints, ``r``
    table reads per zone of ``r`` ranks (``O(total ranks)`` scalar
    steps; fancy indexing over a handful of zones per row cost more).
    Zones are grouped by ``f`` (one window stride per batch) and
    batched so that no batch's choice table and difference buffers
    outgrow :data:`_BATCH_BYTES` (a zone too large on its own runs
    alone).

    No feasibility mask is applied: every predecessor of a state that can
    still reach ``j = e`` can too, and states with ``j > k`` stay
    ``inf``, so the optimal path and its choices are those of the masked
    DP.  Columns past a zone's own ``e`` are never read back.
    """
    parts = []
    solve = {}  # f -> (part index, block_lo, n, r, f, e) of zones that need the DP
    for a, b, lo, hi in zones:
        r = hi - lo
        f, e = divmod(b - a, r)
        if e:
            solve.setdefault(f, []).append((len(parts), a, b - a, r, f, e))
        parts.append(np.full(r, f, dtype=np.int64))
    for group in solve.values():
        for batch in _batches(group):
            for (i, *_), counts in zip(batch, _restricted_dp(costs, batch)):
                parts[i] = counts
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


#: memory bound of one batch of zones: choice table plus difference buffers
_BATCH_BYTES = 16 << 20


def _table_bytes(n_z: int, rows: int, width: int, f: int) -> int:
    """Bytes of a batch's tables: one byte per row and state of choice
    table, plus floor and ceil difference buffers of ``(rows - 1) * f +
    width`` floats per zone (one fewer for ceil)."""
    return n_z * (rows * width + 8 * (2 * ((rows - 1) * f + width) - 1))


def _batches(zones: list):
    """Split DP zones of one floor size, in order, into batches whose
    :func:`_table_bytes` stay within :data:`_BATCH_BYTES`."""
    batch, rows, width = [], 0, 0
    for zone in zones:
        r, w = max(rows, zone[3]), max(width, zone[5] + 1)
        if batch and _table_bytes(len(batch) + 1, r, w, zone[4]) > _BATCH_BYTES:
            yield batch
            batch, r, w = [], zone[3], zone[5] + 1
        batch.append(zone)
        rows, width = r, w
    if batch:
        yield batch


def _restricted_dp(costs: np.ndarray, zones: list) -> List[np.ndarray]:
    """Counts of each ``(_, block_lo, n, r, f, e)`` zone with ``e > 0``,
    all zones of one floor size ``f``."""
    n_z = len(zones)
    ranks = [z[3] for z in zones]
    rows, width, f = max(ranks), max(z[5] for z in zones) + 1, zones[0][4]
    # seg_f[z, t*f + j] / seg_c[z, t*f + j]: floor segment of row t from
    # state j, ceil segment of row t from state j into j + 1.  A zone's
    # rank k is row t = rows - r + k, so its differences start at column
    # (rows - r)*f.  Each zone keeps its own prefix sum (slicing a global
    # one rounds differently), padded with its last value so that the
    # columns past the zone's own e stay finite.
    size = (rows - 1) * f + width
    seg_f = np.empty((n_z, size))
    seg_c = np.empty((n_z, size - 1))
    for z, (_, a, n, r, _f, _e) in enumerate(zones):
        m = (r - 1) * f + width
        p = np.empty(m + f, dtype=np.float64)
        p[0] = 0.0
        np.cumsum(costs[a:a + n], dtype=np.float64, out=p[1:n + 1])
        p[n + 1:] = p[n]
        np.subtract(p[f:], p[:m], out=seg_f[z, size - m:])
        np.subtract(p[f + 1:], p[:m - 1], out=seg_c[z, size - m:])
    # Rows before a zone's first rank read padding instead: a floor
    # segment of -inf and a ceil segment of +inf, in a masked copy.
    first = np.array([rows - r for r in ranks])[:, None]
    lead = rows - min(ranks)

    dp = np.full((n_z, width), np.inf)
    dp[:, 0] = 0.0
    cand_f = np.empty_like(dp)
    cand_c = np.full_like(dp, np.inf)
    # Views reused by every row: the states a ceil segment leaves (of
    # both state buffers, which swap each row) and the ones it enters.
    dp_head, cand_f_head, cand_c_tail = dp[:, :-1], cand_f[:, :-1], cand_c[:, 1:]
    choice = np.empty((rows, n_z, width), dtype=bool)
    for t, took_ceil in enumerate(choice):
        o = t * f
        sf, sc = seg_f[:, o:o + width], seg_c[:, o:o + width - 1]
        if t < lead:
            idle = first > t
            sf = np.where(idle, -np.inf, sf)
            sc = np.where(idle, np.inf, sc)
        np.maximum(dp, sf, out=cand_f)
        np.maximum(dp_head, sc, out=cand_c_tail)
        np.less(cand_c, cand_f, out=took_ceil)
        np.minimum(cand_f, cand_c, out=cand_f)
        dp, cand_f = cand_f, dp
        dp_head, cand_f_head = cand_f_head, dp_head

    # Backtrack each zone alone, in Python ints, from its final state
    # j = e; a zone of r ranks owns the last r rows of the table.
    item = choice.item
    out = []
    for z, (_, _a, _n, r, _f, e) in enumerate(zones):
        off, j = rows - r, e
        counts = [0] * r
        for t in range(r - 1, -1, -1):
            c = item(off + t, z, j)
            counts[t] = f + c
            j -= c
        assert j == 0, "CDP reconstruction failed"
        out.append(np.array(counts, dtype=np.int64))
    return out


def cdp_full(costs: np.ndarray, n_ranks: int) -> np.ndarray:
    """Unrestricted contiguous-partition DP; returns per-rank counts.

    ``DP[i][k] = min over j < i of max(DP[j][k-1], W[i] - W[j])`` — the
    exact recurrence from the paper (§V-C).  O(n^2 r); use only for
    small instances (tests, the restriction ablation).
    """
    n = int(costs.shape[0])
    prefix = np.concatenate([[0.0], np.cumsum(costs, dtype=np.float64)])
    INF = np.inf
    dp = np.full((n + 1, n_ranks + 1), INF, dtype=np.float64)
    cut = np.zeros((n + 1, n_ranks + 1), dtype=np.int64)
    dp[0, 0] = 0.0
    for k in range(1, n_ranks + 1):
        for i in range(0, n + 1):
            # segment (j, i] assigned to rank k-1 (may be empty: j == i)
            seg = prefix[i] - prefix[: i + 1]  # seg[j] = W[i] - W[j]
            cand = np.maximum(dp[: i + 1, k - 1], seg)
            j = int(np.argmin(cand))
            dp[i, k] = cand[j]
            cut[i, k] = j
    counts = np.empty(n_ranks, dtype=np.int64)
    i = n
    for k in range(n_ranks, 0, -1):
        j = int(cut[i, k])
        counts[k - 1] = i - j
        i = j
    assert i == 0, "full CDP reconstruction failed"
    return counts


def cdp_optimal_makespan(costs: np.ndarray, n_ranks: int) -> float:
    """Exact optimal contiguous makespan (value only), via binary search.

    Greedy feasibility: a threshold ``T`` is achievable iff packing blocks
    left-to-right, cutting just before the segment would exceed ``T``,
    uses at most ``r`` segments.  Optimal ``T`` is bracketed between
    ``max(max_cost, total/r)`` and ``total``; we binary-search to within
    machine precision of the answer.
    """
    costs = np.asarray(costs, dtype=np.float64)
    n = int(costs.shape[0])
    if n == 0:
        return 0.0
    total = float(costs.sum())
    lo = max(float(costs.max()), total / n_ranks)
    hi = total

    def feasible(T: float) -> bool:
        segments = 1
        acc = 0.0
        for w in costs:
            if acc + w > T + 1e-12 * max(1.0, T):
                segments += 1
                acc = w
                if segments > n_ranks:
                    return False
            else:
                acc += w
        return True

    if feasible(lo):
        return lo
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
    return hi


@register_policy("cdp")
class CDPPolicy(PlacementPolicy):
    """Locality-preserving load balance: restricted contiguous DP (CPL0 core)."""

    def compute(
        self,
        costs: np.ndarray,
        n_ranks: int,
        ctx: Optional[PlacementContext] = None,
    ) -> np.ndarray:
        return assignment_from_counts(cdp_restricted(costs, n_ranks))


@register_policy("cdp-full")
class CDPFullPolicy(PlacementPolicy):
    """Unrestricted contiguous DP (ablation arm; O(n^2 r))."""

    def compute(
        self,
        costs: np.ndarray,
        n_ranks: int,
        ctx: Optional[PlacementContext] = None,
    ) -> np.ndarray:
        return assignment_from_counts(cdp_full(costs, n_ranks))
