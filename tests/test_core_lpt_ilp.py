"""Tests for LPT and the exact branch-and-bound reference solver."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    load_stats,
    lpt_assign,
    makespan_lower_bound,
    solve_makespan_bnb,
)
from repro.core import lpt
from repro.core.cplx import repool

small_instances = st.tuples(
    st.lists(st.floats(0.1, 10.0), min_size=1, max_size=12),
    st.integers(1, 4),
)


def brute_force_makespan(costs: np.ndarray, r: int) -> float:
    best = float("inf")
    for assign in itertools.product(range(r), repeat=len(costs)):
        loads = np.zeros(r)
        for c, a in zip(costs, assign):
            loads[a] += c
        best = min(best, loads.max())
    return best


class TestLPT:
    def test_known_example(self):
        # Graham's classic: LPT gives 11, optimal is 9 (ratio 11/9 < 4/3).
        costs = np.array([5.0, 5.0, 4.0, 4.0, 3.0, 3.0, 3.0])
        a = lpt_assign(costs, 3)
        m = load_stats(costs, a, 3).makespan
        assert m == pytest.approx(11.0)  # LPT: (5,3,3) (5,3) (4,4) -> 11
        assert solve_makespan_bnb(costs, 3).makespan == pytest.approx(9.0)

    def test_deterministic(self):
        costs = np.array([1.0, 1.0, 1.0, 1.0])
        a1, a2 = lpt_assign(costs, 2), lpt_assign(costs, 2)
        assert np.array_equal(a1, a2)

    def test_initial_loads_steer_assignment(self):
        costs = np.array([1.0])
        a = lpt_assign(costs, 2, initial_loads=np.array([5.0, 0.0]))
        assert a[0] == 1

    def test_initial_loads_shape_checked(self):
        with pytest.raises(ValueError):
            lpt_assign(np.ones(3), 2, initial_loads=np.ones(3))

    @given(small_instances)
    @settings(max_examples=30)
    def test_within_4_3_of_optimal(self, inst):
        costs, r = np.asarray(inst[0]), inst[1]
        if len(costs) > 8:
            costs = costs[:8]
        lpt_m = load_stats(costs, lpt_assign(costs, r), r).makespan
        opt = brute_force_makespan(costs, r)
        assert lpt_m <= opt * (4 / 3 - 1 / (3 * r)) + 1e-9

    @given(small_instances)
    @settings(max_examples=30)
    def test_never_worse_than_area_and_max_bounds(self, inst):
        costs, r = np.asarray(inst[0]), inst[1]
        m = load_stats(costs, lpt_assign(costs, r), r).makespan
        assert m >= max(costs.max(), costs.sum() / r) - 1e-9

    def test_subset_rebalance_only_touches_selected(self):
        costs = np.arange(1.0, 11.0)
        assignment = np.repeat(np.arange(5), 2)
        block_ids = np.array([0, 1, 8, 9])
        rank_ids = np.array([0, 4])
        out = repool(
            costs, assignment, rank_ids, lambda pool: lpt_assign(pool, 2)
        )
        untouched = np.setdiff1d(np.arange(10), block_ids)
        assert np.array_equal(out[untouched], assignment[untouched])
        assert set(out[block_ids]) <= {0, 4}


def naive_lpt(costs: np.ndarray, r: int, initial_loads=None) -> np.ndarray:
    """O(n·r) LPT oracle: each block, in stable descending-cost order,
    goes to ``min((load, rank))`` (``argmin`` takes the first, lowest
    rank among equal loads)."""
    loads = np.zeros(r) if initial_loads is None else np.array(initial_loads, dtype=float)
    assignment = np.zeros(len(costs), dtype=np.int64)
    for b in sorted(range(len(costs)), key=lambda i: -float(costs[i])):
        k = int(np.argmin(loads))
        assignment[b] = k
        loads[k] += costs[b]
    return assignment


@st.composite
def lpt_instances(draw):
    """(costs, r, initial_loads) on both sides of the round threshold,
    shaped to tie: small integer costs, zero-cost and geometric tails,
    all costs equal, and tied initial loads."""
    r = draw(st.integers(1, 300))
    n = draw(st.integers(0, 3 * r))
    shape = draw(st.sampled_from(["ints", "zero-tail", "geometric-tail", "equal", "floats"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    head = n - draw(st.integers(0, n))
    if shape == "ints":
        costs = rng.integers(0, draw(st.integers(1, 6)), n).astype(float)
    elif shape == "zero-tail":
        costs = np.concatenate([rng.exponential(1.0, head), np.zeros(n - head)])
    elif shape == "geometric-tail":
        costs = np.concatenate([rng.exponential(1.0, head), 0.9 ** np.arange(n - head)])
    elif shape == "equal":
        costs = np.full(n, 0.75)
    else:
        costs = rng.exponential(1.0, n)
    loads = draw(st.sampled_from([None, "ties", "equal", "floats"]))
    if loads == "ties":
        loads = rng.integers(0, 3, r).astype(float)
    elif loads == "equal":
        loads = np.full(r, 2.0)
    elif loads == "floats":
        loads = rng.random(r) * 2.0
    return costs, r, loads


class TestLPTOracle:
    """Round-batched :func:`lpt_assign` equals the one-block-at-a-time
    greedy, with its own thresholds and with rounds forced on every
    input (``_ROUND_MIN = 1``, tie-fixed sorts at every length)."""

    @given(lpt_instances())
    @settings(max_examples=40)
    def test_matches_naive_greedy(self, inst):
        costs, r, loads = inst
        np.testing.assert_array_equal(
            lpt_assign(costs, r, initial_loads=loads), naive_lpt(costs, r, loads)
        )

    @given(lpt_instances())
    @settings(max_examples=40)
    def test_forced_rounds_match_naive_greedy(self, inst):
        costs, r, loads = inst
        with mock.patch.object(lpt, "_ROUND_MIN", 1), mock.patch.object(lpt, "_SORT_MIN", 0):
            got = lpt_assign(costs, r, initial_loads=loads)
        np.testing.assert_array_equal(got, naive_lpt(costs, r, loads))


class TestBnB:
    @given(small_instances)
    @settings(max_examples=25)
    def test_matches_brute_force(self, inst):
        costs, r = np.asarray(inst[0]), inst[1]
        if len(costs) > 9:
            costs = costs[:9]
        res = solve_makespan_bnb(costs, r, time_limit_s=5.0)
        assert res.optimal
        assert res.makespan == pytest.approx(brute_force_makespan(costs, r), rel=1e-9)

    def test_lower_bounds_sound(self):
        costs = np.array([4.0, 3.0, 3.0, 2.0, 2.0])
        lb = makespan_lower_bound(costs, 2)
        res = solve_makespan_bnb(costs, 2)
        assert lb <= res.makespan + 1e-12
        assert lb == pytest.approx(7.0)  # area bound 14/2

    def test_pairing_bound(self):
        # 3 jobs on 2 machines: some machine gets two of the largest 3.
        costs = np.array([5.0, 4.0, 3.0])
        assert makespan_lower_bound(costs, 2) == pytest.approx(7.0)

    def test_never_worse_than_lpt(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            costs = rng.exponential(1.0, size=12)
            res = solve_makespan_bnb(costs, 4)
            from repro.core import lpt_assign

            lpt_m = load_stats(costs, lpt_assign(costs, 4), 4).makespan
            assert res.makespan <= lpt_m + 1e-12

    def test_empty(self):
        res = solve_makespan_bnb(np.array([]), 3)
        assert res.makespan == 0.0 and res.optimal
