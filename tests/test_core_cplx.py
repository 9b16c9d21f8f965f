"""Tests for CPLX — the paper's hybrid policy (§V-D)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CPLX,
    contiguity_fraction,
    get_policy,
    hetero_lpt_assign,
    load_stats,
    lpt_assign,
    select_rebalance_ranks,
)
from repro.core import cplx as cplx_module
from repro.core import hetero as hetero_module
from repro.core.cplx import rebalance_count
from repro.simnet import hetero_cluster

costs_strategy = st.lists(st.floats(0.05, 10.0), min_size=8, max_size=120).map(
    np.asarray
)


class TestSelection:
    def test_x0_selects_none(self):
        assert select_rebalance_ranks(np.arange(10.0), 0.0).size == 0

    def test_x100_selects_all(self):
        sel = select_rebalance_ranks(np.arange(10.0), 100.0)
        assert sorted(sel.tolist()) == list(range(10))

    def test_both_ends_selected(self):
        loads = np.array([10.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 1.0])
        sel = set(select_rebalance_ranks(loads, 25.0).tolist())
        assert 0 in sel  # most loaded
        assert 7 in sel  # least loaded

    def test_minimum_two_when_positive(self):
        sel = select_rebalance_ranks(np.array([3.0, 1.0, 2.0]), 1.0)
        assert sel.size == 2

    def test_invalid_x(self):
        with pytest.raises(ValueError):
            select_rebalance_ranks(np.ones(4), 150.0)

    @given(
        st.lists(st.floats(0.0, 10.0), min_size=2, max_size=64).map(np.asarray),
        st.floats(0.0, 100.0),
    )
    def test_selection_size_tracks_x(self, loads, x):
        sel = select_rebalance_ranks(loads, x)
        r = loads.shape[0]
        expected = int(round(x / 100 * r))
        if x > 0:
            expected = max(expected, 2)
        assert sel.size == min(expected, r)
        assert np.unique(sel).size == sel.size


class TestEndpoints:
    @given(costs_strategy, st.integers(2, 12))
    @settings(max_examples=30)
    def test_x0_is_chunked_cdp(self, costs, r):
        a = CPLX(x_percent=0).compute(costs, r)
        b = get_policy("cdp-chunked").compute(costs, r)
        assert np.array_equal(a, b)

    @given(costs_strategy, st.integers(2, 12))
    @settings(max_examples=30)
    def test_x100_matches_lpt_makespan(self, costs, r):
        """X=100 re-places every block with LPT over all ranks: the very
        assignment of plain LPT, so its makespan too."""
        np.testing.assert_array_equal(
            CPLX(x_percent=100).compute(costs, r), lpt_assign(costs, r)
        )

    def test_invalid_x_rejected(self):
        with pytest.raises(ValueError):
            CPLX(x_percent=-5)


class TestEveryRankSelected:
    """A selection of every rank makes CPLX plain LPT, without the split."""

    @staticmethod
    def _skewed(r):
        return hetero_cluster(r, "fast:0.5x1,slow:1.0x3").placement_context()

    @staticmethod
    def _forbid_split(monkeypatch):
        def no_split(*args, **kwargs):
            raise AssertionError("the contiguous split was computed")

        monkeypatch.setattr(cplx_module, "chunked_cdp_counts", no_split)
        monkeypatch.setattr(hetero_module, "capacity_contiguous_counts", no_split)

    @pytest.mark.parametrize("r, x", [(2, 25.0), (2, 1.0), (3, 90.0)])
    def test_clamped_selection_is_lpt(self, r, x):
        assert rebalance_count(r, x) == r
        costs = np.random.default_rng(r).exponential(1.0, size=40)
        np.testing.assert_array_equal(
            CPLX(x_percent=x).compute(costs, r), lpt_assign(costs, r)
        )

    def test_hetero_x100_is_hetero_lpt(self):
        ctx = self._skewed(32)
        costs = np.random.default_rng(5).exponential(1.0, size=80)
        got = get_policy("hetero-cplx:100").place(costs, ctx=ctx).assignment
        np.testing.assert_array_equal(got, hetero_lpt_assign(costs, ctx.rank_speed))

    @pytest.mark.parametrize(
        "policy, r, skewed",
        [
            ("cplx:100", 32, False),
            ("cplx:25", 2, False),
            ("cplx:90", 3, False),
            ("hetero-cplx:100", 32, False),
            ("hetero-cplx:100", 32, True),
        ],
    )
    def test_split_is_skipped(self, monkeypatch, policy, r, skewed):
        self._forbid_split(monkeypatch)
        costs = np.random.default_rng(7).exponential(1.0, size=90)
        ctx = self._skewed(r) if skewed else None
        get_policy(policy).place(costs, r, ctx=ctx)

    @pytest.mark.parametrize("policy, r", [("cplx:50", 3), ("cplx:75", 32)])
    def test_partial_selection_uses_split(self, monkeypatch, policy, r):
        """The patch is effective: a partial selection needs the split."""
        assert rebalance_count(r, get_policy(policy).x_percent) < r
        self._forbid_split(monkeypatch)
        with pytest.raises(AssertionError, match="split was computed"):
            get_policy(policy).place(np.ones(40), r)


class TestTradeoff:
    def test_makespan_weakly_improves_with_x(self):
        rng = np.random.default_rng(0)
        costs = rng.exponential(1.0, size=256)
        r = 32
        makespans = []
        for x in (0, 25, 50, 75, 100):
            a = CPLX(x_percent=x).compute(costs, r)
            makespans.append(load_stats(costs, a, r).makespan)
        # Endpoints: LPT-side no worse than CDP-side; interior between-ish.
        assert makespans[-1] <= makespans[0] + 1e-9
        assert min(makespans) >= makespans[-1] - 1e-9

    def test_contiguity_decreases_with_x(self):
        rng = np.random.default_rng(1)
        costs = rng.exponential(1.0, size=256)
        fracs = [
            contiguity_fraction(CPLX(x_percent=x).compute(costs, 32))
            for x in (0, 50, 100)
        ]
        assert fracs[0] > fracs[1] > fracs[2]

    def test_unselected_ranks_keep_blocks(self):
        rng = np.random.default_rng(2)
        costs = rng.exponential(1.0, size=64)
        r = 16
        cdp = CPLX(x_percent=0).compute(costs, r)
        hybrid = CPLX(x_percent=25).compute(costs, r)
        loads = np.bincount(cdp, weights=costs, minlength=r)
        selected = set(select_rebalance_ranks(loads, 25.0).tolist())
        for b in range(64):
            if cdp[b] not in selected:
                assert hybrid[b] == cdp[b], f"block {b} moved off unselected rank"
            else:
                assert hybrid[b] in selected

    @given(costs_strategy, st.integers(2, 10))
    @settings(max_examples=20)
    def test_all_x_produce_valid_assignments(self, costs, r):
        for x in (0.0, 10.0, 33.3, 66.6, 100.0):
            a = CPLX(x_percent=x).place(costs, r)  # place() validates
            assert a.assignment.shape == costs.shape

    def test_single_rank_degenerate(self):
        a = CPLX(x_percent=50).compute(np.ones(5), 1)
        assert (a == 0).all()
