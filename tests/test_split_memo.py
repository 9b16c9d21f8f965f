"""The process-wide chunked-CDP split memo (``repro.core.chunked``).

CPLX's contiguous split does not depend on ``X``, so every arm placing
one cost vector shares one solve.  These tests pin what the memo may
change (host time) and what it may not: the counts, their
read-onlyness, what counts as the same input, the byte bound, thread
safety, and the reported placement time, which stays the cold cost and
which ``measure_policy`` samples from cold solves.
"""

from __future__ import annotations

import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.distributions import make_costs
from repro.bench.scalebench import ScalebenchConfig, overhead_table, run_scalebench
from repro.core import (
    assignment_from_counts, chunked_cdp_counts, get_policy, measure_policy,
)
from repro.core import chunked
from repro.core.cdp import cdp_restricted_zones
from repro.core.chunked import SPLIT_MEMO_BYTES, _SplitMemo, zone_ranges


@pytest.fixture
def memo(monkeypatch):
    """A fresh process-wide memo, so no earlier test's entries hit."""
    fresh = _SplitMemo()
    monkeypatch.setattr(chunked, "_SPLIT_MEMO", fresh)
    return fresh


def _fresh_solve(costs, n_ranks, rpc):
    return cdp_restricted_zones(costs, zone_ranges(costs, n_ranks, rpc))


@given(
    st.lists(st.floats(0.0, 100.0), min_size=1, max_size=200),
    st.integers(1, 64),
    st.integers(1, 32),
)
@settings(max_examples=40)
def test_memoized_counts_equal_a_fresh_solve(values, n_ranks, rpc):
    costs = np.asarray(values)
    memo = _SplitMemo()
    want = _fresh_solve(costs, n_ranks, rpc)
    cold = memo.counts(costs, n_ranks, rpc)
    hit = memo.counts(costs.copy(), n_ranks, rpc)
    assert hit is cold
    assert np.array_equal(cold, want)
    assert np.array_equal(chunked_cdp_counts(costs, n_ranks, rpc), want)


def test_stored_counts_are_read_only(memo):
    costs = make_costs("exponential", 300, seed=1)
    counts = chunked_cdp_counts(costs, 64, ranks_per_chunk=16)
    assert not counts.flags.writeable
    with pytest.raises(ValueError):
        counts[0] += 1
    assert chunked_cdp_counts(costs, 64, ranks_per_chunk=16) is counts


def test_any_changed_input_misses(memo):
    costs = make_costs("gaussian", 300, seed=2)
    first = chunked_cdp_counts(costs, 64, ranks_per_chunk=16)
    bumped = costs.copy()
    bumped[137] = np.nextafter(bumped[137], np.inf)
    variants = [
        (bumped, 64, 16),
        (costs, 48, 16),
        (costs, 64, 8),
        (costs.astype(np.float32), 64, 16),
    ]
    for c, r, rpc in variants:
        got = chunked_cdp_counts(c, r, ranks_per_chunk=rpc)
        assert got is not first
        assert np.array_equal(got, _fresh_solve(c, r, rpc))
    assert len(memo._entries) == 1 + len(variants)
    assert chunked_cdp_counts(costs.copy(), 64, ranks_per_chunk=16) is first


def test_byte_bound_evicts_least_recently_used(monkeypatch):
    assert chunked._SPLIT_MEMO.max_bytes == SPLIT_MEMO_BYTES
    entry = 16 * 8 + _SplitMemo.ENTRY_OVERHEAD
    monkeypatch.setattr(chunked, "SPLIT_MEMO_BYTES", 5 * entry)
    memo = _SplitMemo()
    vectors = [make_costs("exponential", 40, seed=s) for s in range(12)]
    held = [memo.counts(c, 16, 4) for c in vectors]
    assert memo.nbytes <= memo.max_bytes
    assert len(memo._entries) == 5
    assert memo.counts(vectors[-1], 16, 4) is held[-1]    # newest kept
    assert memo.counts(vectors[0], 16, 4) is not held[0]  # oldest evicted
    assert memo.nbytes <= memo.max_bytes
    monkeypatch.setattr(chunked, "SPLIT_MEMO_BYTES", entry - 1)
    too_small = _SplitMemo()
    too_small.counts(vectors[0], 16, 4)
    assert len(too_small._entries) == 0 and too_small.nbytes == 0


def test_concurrent_places_return_correct_assignments(monkeypatch):
    """More threads than cores, a short switch interval, and a memo too
    small for the working set, so hits, solves and evictions interleave."""
    n_ranks = 1024
    vectors = [
        make_costs(d, 2304, seed=s)
        for d in ("exponential", "power-law") for s in (7, 8)
    ]
    arms = ["cplx:0", "cplx:25", "cplx:50", "cplx:75", "cdp-chunked"]
    jobs = [(v, arm) for v in range(len(vectors)) for arm in arms] * 4
    split = [
        assignment_from_counts(_fresh_solve(c, n_ranks, 512)) for c in vectors
    ]
    want = {}
    for v, arm in sorted(set(jobs)):
        want[v, arm] = get_policy(arm).place(vectors[v], n_ranks).assignment
    for v in range(len(vectors)):
        assert np.array_equal(want[v, "cdp-chunked"], split[v])
        assert np.array_equal(want[v, "cplx:0"], split[v])
    entry = n_ranks * 8 + _SplitMemo.ENTRY_OVERHEAD
    monkeypatch.setattr(chunked, "SPLIT_MEMO_BYTES", 3 * entry)
    small = _SplitMemo()
    monkeypatch.setattr(chunked, "_SPLIT_MEMO", small)

    def place(job):
        v, arm = job
        return get_policy(arm).place(vectors[v], n_ranks).assignment

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [(job, pool.submit(place, job)) for job in jobs]
            for job, fut in futures:
                assert np.array_equal(fut.result(timeout=60), want[job]), job
    finally:
        sys.setswitchinterval(interval)
    assert len(small._entries) == 3
    assert small.nbytes == 3 * entry            # no lost update


@pytest.fixture
def slow_solve(monkeypatch, memo):
    """Make every cold split take at least ``SLOW_S`` seconds; the list
    it yields gets one entry per cold split."""
    real = chunked.cdp_restricted_zones
    solves = []

    def slow(costs, zones):
        solves.append(len(costs))
        time.sleep(SLOW_S)
        return real(costs, zones)

    monkeypatch.setattr(chunked, "cdp_restricted_zones", slow)
    return solves


SLOW_S = 0.03


def test_hit_is_charged_the_recorded_solve_time(slow_solve, memo):
    costs = make_costs("exponential", 1152, seed=3)
    for arm in ("cplx:0", "cplx:25", "cplx:50", "cplx:75", "cdp-chunked"):
        assert get_policy(arm).place(costs, 512).elapsed_s >= SLOW_S
    assert len(slow_solve) == 1            # four hits, each charged in full
    assert len(memo._entries) == 1


def test_overhead_table_keeps_the_cold_split_cost(slow_solve, memo):
    rows = run_scalebench(
        ScalebenchConfig(
            scales=(256,), distributions=("exponential",), repeats=1,
            x_values=(0.0, 25.0, 50.0, 75.0),
        )
    )
    assert {r.x for r in rows} == {0.0, 25.0, 50.0, 75.0}
    assert len(slow_solve) == 1            # one solve served all four arms
    assert len(memo._entries) == 1
    assert all(r.placement_s >= SLOW_S for r in rows)
    cells = overhead_table(rows).splitlines()[-1].split()
    assert all(float(c) >= SLOW_S * 1e3 for c in cells[-4:])


def test_measure_policy_samples_cold_splits(slow_solve, memo):
    """Every timed call, warm-up included, solves its own split, and the
    process-wide memo neither answers nor stores them."""
    costs = make_costs("gaussian", 1152, seed=4)
    get_policy("cplx:0").place(costs, 512)          # a stored entry to skip
    rep = measure_policy(get_policy("cplx:50"), costs, 512, repeats=3)
    assert len(slow_solve) == 1 + 4
    assert len(memo._entries) == 1
    assert rep.mean_s >= SLOW_S
    assert get_policy("cplx:25").place(costs, 512).elapsed_s >= SLOW_S
    assert len(slow_solve) == 5                     # the entry still hits


def test_cold_splits_is_per_thread(memo):
    """Another thread placing inside one thread's ``cold_splits`` block
    still shares the process-wide memo."""
    costs = make_costs("power-law", 600, seed=5)
    with chunked.cold_splits(), ThreadPoolExecutor(max_workers=1) as pool:
        pool.submit(chunked_cdp_counts, costs, 64, 16).result()
        inner = chunked_cdp_counts(costs, 64, 16)
    assert len(memo._entries) == 1
    assert chunked_cdp_counts(costs, 64, 16) is not inner
