"""Cross-policy property tests: invariants every placement must satisfy."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    available_policies,
    get_policy,
    load_stats,
    makespan_lower_bound,
    validate_assignment,
)

#: policies constructible with no arguments (graph-partition needs a mesh)
ZERO_ARG_POLICIES = sorted(set(available_policies()))

instance = st.tuples(
    st.lists(st.floats(0.0, 50.0), min_size=0, max_size=80).map(np.asarray),
    st.integers(1, 16),
)


@pytest.mark.parametrize("name", ZERO_ARG_POLICIES)
class TestEveryPolicy:
    @given(instance)
    @settings(max_examples=15)
    def test_assignment_always_valid(self, name, inst):
        costs, r = inst
        result = get_policy(name).place(costs, r)
        validate_assignment(result.assignment, costs.shape[0], r)

    @given(instance)
    @settings(max_examples=15)
    def test_makespan_respects_lower_bounds(self, name, inst):
        costs, r = inst
        if costs.size == 0:
            return
        a = get_policy(name).compute(costs.astype(np.float64), r)
        mk = load_stats(costs, a, r).makespan
        assert mk >= makespan_lower_bound(costs, r) - 1e-9 or mk >= costs.max() - 1e-9

    @given(instance)
    @settings(max_examples=10)
    def test_deterministic(self, name, inst):
        costs, r = inst
        a = get_policy(name).compute(costs.astype(np.float64), r)
        b = get_policy(name).compute(costs.astype(np.float64), r)
        assert np.array_equal(a, b)

    def test_single_block(self, name):
        a = get_policy(name).place(np.array([3.0]), 4).assignment
        assert a.shape == (1,)

    def test_more_ranks_than_blocks(self, name):
        a = get_policy(name).place(np.ones(3), 10).assignment
        validate_assignment(a, 3, 10)

    def test_zero_costs(self, name):
        a = get_policy(name).place(np.zeros(8), 4).assignment
        validate_assignment(a, 8, 4)

    def test_empty_block_set(self, name):
        a = get_policy(name).place(np.empty(0), 4).assignment
        assert a.shape == (0,)


#: Costs on 4 ranks where LPT (``cplx:100``) ends above restricted CDP
#: (``cplx:0``): makespan 34 against 33 — neither sweep end dominates.
LPT_ABOVE_CDP = (
    np.asarray([2, 2, 3, 4, 20, 2, 6, 11, 14, 2, 4, 7, 20, 2, 2, 12, 17], dtype=float),
    4,
)


def _makespan(name, costs, r):
    return load_stats(costs, get_policy(name).compute(costs, r), r).makespan


class TestCplxSweepInvariants:
    @given(
        st.lists(st.floats(0.01, 20.0), min_size=16, max_size=80).map(np.asarray),
        st.integers(4, 12),
    )
    @example(*LPT_ABOVE_CDP)
    @settings(max_examples=15)
    def test_lpt_end_within_graham_bound(self, costs, r):
        # cplx:100 is list scheduling (LPT) over every rank, so Graham's
        # bound holds: makespan <= sum/r + (1 - 1/r) * max.
        bound = costs.sum() / r + (1 - 1 / r) * costs.max()
        assert _makespan("cplx:100", costs, r) <= bound * (1 + 1e-12)

    def test_lpt_end_can_be_worse_than_cdp_end(self):
        costs, r = LPT_ABOVE_CDP
        assert _makespan("cplx:0", costs, r) == 33
        assert _makespan("cplx:100", costs, r) == 34
        for x in (25, 50, 75):
            assert _makespan(f"cplx:{x}", costs, r) == 33

    @given(
        st.lists(st.floats(0.01, 20.0), min_size=16, max_size=60).map(np.asarray),
        st.integers(4, 10),
        st.floats(0.0, 100.0),
    )
    @example(*LPT_ABOVE_CDP, 100.0)
    @settings(max_examples=20)
    def test_every_x_at_or_above_lower_bound(self, costs, r, x):
        bound = max(costs.max(), costs.sum() / r)
        assert _makespan(f"cplx:{x}", costs, r) >= bound * (1 - 1e-12)

    @given(
        st.lists(st.floats(0.0, 20.0), min_size=0, max_size=60).map(np.asarray),
        st.integers(1, 10),
    )
    @example(*LPT_ABOVE_CDP)
    @settings(max_examples=20)
    def test_cplx_0_is_chunked_cdp(self, costs, r):
        assert np.array_equal(
            get_policy("cplx:0").compute(costs, r),
            get_policy("cdp-chunked").compute(costs, r),
        )
