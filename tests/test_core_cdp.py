"""Tests for the CDP family: restricted DP, full DP, chunking."""

import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import (
    cdp_full,
    cdp_optimal_makespan,
    cdp_restricted,
    chunked_cdp_counts,
    counts_makespan,
    get_policy,
    split_chunks,
)
from repro.bench.distributions import make_costs
from repro.core import cdp
from repro.core.cdp import cdp_restricted_zones
from repro.core.chunked import _rank_shares, zone_ranges

instances = st.tuples(
    st.lists(st.floats(0.05, 10.0), min_size=1, max_size=40),
    st.integers(1, 8),
)


def brute_restricted(costs: np.ndarray, r: int) -> float:
    n = len(costs)
    f, e = divmod(n, r)
    best = float("inf")
    for ceil_pos in itertools.combinations(range(r), e):
        counts = [f + 1 if i in ceil_pos else f for i in range(r)]
        best = min(best, counts_makespan(costs, np.asarray(counts)))
    return best


class TestRestricted:
    @given(instances)
    def test_optimal_within_restriction(self, inst):
        costs, r = np.asarray(inst[0]), inst[1]
        if r > 1 and len(costs) % r != 0 and r <= 6 and len(costs) <= 24:
            counts = cdp_restricted(costs, r)
            assert counts_makespan(costs, counts) == pytest.approx(
                brute_restricted(costs, r)
            )

    @given(instances)
    def test_counts_are_legal(self, inst):
        costs, r = np.asarray(inst[0]), inst[1]
        counts = cdp_restricted(costs, r)
        n = len(costs)
        f, e = divmod(n, r)
        assert counts.sum() == n
        assert set(counts.tolist()) <= {f, f + 1}
        assert (counts == f + 1).sum() == e

    def test_divisible_case_unique(self):
        costs = np.ones(12)
        counts = cdp_restricted(costs, 4)
        assert counts.tolist() == [3, 3, 3, 3]

    def test_improves_on_worst_contiguous(self):
        # One expensive block: restriction still avoids pairing it badly.
        costs = np.array([1.0, 1.0, 10.0, 1.0, 1.0])
        counts = cdp_restricted(costs, 2)  # sizes {2, 3}
        m = counts_makespan(costs, counts)
        # best restricted split: [1,1] | [10,1,1] = 12 or [1,1,10] | [1,1]=12
        assert m == pytest.approx(12.0)


def _zone_list(blocks_ranks):
    """Contiguous ``(block_lo, block_hi, rank_lo, rank_hi)`` zones."""
    zones, a, lo = [], 0, 0
    for n, r in blocks_ranks:
        zones.append((a, a + n, lo, lo + r))
        a, lo = a + n, lo + r
    return zones


#: (blocks, ranks) per zone: floor sizes 0, 1 and 2 interleaved, with
#: rank counts that differ by hundreds inside each floor size, so the
#: smaller zones of a batch start hundreds of rows late.
MIXED_ZONES = _zone_list([
    (300, 700), (150, 100), (1000, 400), (25, 10), (900, 600), (3, 7),
    (12, 5), (64, 32), (5, 2), (420, 200),
])


class TestZoneBatches:
    @pytest.mark.parametrize("batch_bytes", [cdp._BATCH_BYTES, 30_000, 1])
    @pytest.mark.parametrize("ties", [False, True])
    def test_mixed_floor_sizes_equal_lone_cdp(self, batch_bytes, ties):
        """Zones grouped by floor size, with long -inf/+inf lead-ins,
        solve as if each ran alone, however they are batched."""
        assert {(b - a) // (hi - lo) for a, b, lo, hi in MIXED_ZONES} == {0, 1, 2}
        rng = np.random.default_rng(11)
        n = MIXED_ZONES[-1][1]
        costs = (
            rng.integers(0, 4, n).astype(np.float64) if ties
            else rng.exponential(1.0, n)
        )
        expected = np.concatenate(
            [cdp_restricted(costs[a:b], hi - lo) for a, b, lo, hi in MIXED_ZONES]
        )
        with mock.patch.object(cdp, "_BATCH_BYTES", batch_bytes):
            got = cdp_restricted_zones(costs, MIXED_ZONES)
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("batch_bytes", [cdp._BATCH_BYTES, 30_000])
    def test_batch_tables_stay_within_budget(self, batch_bytes):
        """The skewed case of the scale digest (one zone of 4099 ranks on
        17 blocks beside ~500 zones of 15-16 ranks).  The choice table
        and difference buffers a batch allocates are what
        :func:`_table_bytes` estimates, and fit :data:`_BATCH_BYTES`
        unless one zone alone outgrows it; at the default budget all the
        memory a batch's solve holds at once fits too."""
        costs = make_costs("exponential", int(8192 * 2.25), seed=9)
        costs[9000] = costs.sum()
        zones = zone_ranges(costs, 8192, 16)
        assert max(hi - lo for _, _, lo, hi in zones) == 4099
        solve, real_empty, batches = cdp._restricted_dp, np.empty, []

        def spy(costs, batch):
            tables = []

            def empty(shape, *args, **kwargs):
                out = real_empty(shape, *args, **kwargs)
                if out.ndim > 1:  # the 1-D prefix sums are per zone
                    tables.append(out.nbytes)
                return out

            tracemalloc.start()
            try:
                with mock.patch.object(np, "empty", empty):
                    out = solve(costs, batch)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            rows, width = max(z[3] for z in batch), max(z[5] for z in batch) + 1
            estimate = cdp._table_bytes(len(batch), rows, width, batch[0][4])
            batches.append((len(batch), sum(tables), estimate, peak))
            return out

        with mock.patch.object(cdp, "_restricted_dp", spy), \
                mock.patch.object(cdp, "_BATCH_BYTES", batch_bytes):
            got = cdp_restricted_zones(costs, zones)
        np.testing.assert_array_equal(
            got,
            np.concatenate(
                [cdp_restricted(costs[a:b], hi - lo) for a, b, lo, hi in zones]
            ),
        )
        assert len(batches) > 1
        for n_zones, tables, estimate, peak in batches:
            assert tables == estimate
            assert n_zones == 1 or tables <= batch_bytes
            if batch_bytes == cdp._BATCH_BYTES:
                assert peak <= batch_bytes


class TestFullDP:
    @given(instances)
    @settings(max_examples=25)
    def test_matches_parametric_optimum(self, inst):
        costs, r = np.asarray(inst[0]), inst[1]
        if len(costs) > 25:
            costs = costs[:25]
        counts = cdp_full(costs, r)
        assert counts.sum() == len(costs)
        m = counts_makespan(costs, counts)
        assert m == pytest.approx(cdp_optimal_makespan(costs, r), rel=1e-6)

    @given(instances)
    @settings(max_examples=25)
    def test_full_never_worse_than_restricted(self, inst):
        costs, r = np.asarray(inst[0]), inst[1]
        mf = counts_makespan(costs, cdp_full(costs, r))
        mr = counts_makespan(costs, cdp_restricted(costs, r))
        assert mf <= mr + 1e-9

    def test_allows_empty_segments(self):
        # More ranks than blocks: full DP legally leaves ranks empty.
        counts = cdp_full(np.array([3.0, 1.0]), 4)
        assert counts.sum() == 2
        assert counts_makespan(np.array([3.0, 1.0]), counts) == pytest.approx(3.0)


class TestCountsMakespan:
    def test_mismatched_counts_rejected(self):
        with pytest.raises(ValueError):
            counts_makespan(np.ones(5), np.array([2, 2]))

    def test_known_value(self):
        assert counts_makespan(np.array([1, 2, 3, 4.0]), np.array([2, 2])) == 7.0


class TestChunking:
    def test_split_chunks_cover_exactly(self):
        costs = np.ones(100)
        ranges = split_chunks(costs, 7)
        assert ranges[0][0] == 0 and ranges[-1][1] == 100
        for (a0, b0), (a1, b1) in zip(ranges, ranges[1:]):
            assert b0 == a1
        assert all(b > a for a, b in ranges)

    def test_split_balances_cost_not_count(self):
        costs = np.array([10.0] * 10 + [1.0] * 90)
        ranges = split_chunks(costs, 2)
        left = costs[ranges[0][0]:ranges[0][1]].sum()
        right = costs[ranges[1][0]:ranges[1][1]].sum()
        assert abs(left - right) <= 10.0  # within one max-cost block

    def test_rank_shares_sum_and_minimum(self):
        shares = _rank_shares(np.array([10.0, 1.0, 1.0]), 8)
        assert shares.sum() == 8
        assert (shares >= 1).all()
        assert shares[0] > shares[1]

    def test_rank_shares_too_few_ranks(self):
        with pytest.raises(ValueError):
            _rank_shares(np.ones(5), 3)

    @given(instances, st.integers(1, 4))
    @settings(max_examples=25)
    def test_chunked_counts_legal(self, inst, rpc):
        costs, r = np.asarray(inst[0]), inst[1]
        counts = chunked_cdp_counts(costs, r, ranks_per_chunk=rpc)
        assert counts.shape == (r,)
        assert counts.sum() == len(costs)
        assert (counts >= 0).all()

    def test_single_chunk_equals_plain_cdp(self):
        rng = np.random.default_rng(0)
        costs = rng.exponential(1.0, size=50)
        a = chunked_cdp_counts(costs, 8, ranks_per_chunk=100)
        b = cdp_restricted(costs, 8)
        assert np.array_equal(a, b)

    @given(
        st.lists(st.integers(0, 3), min_size=1, max_size=300).map(
            lambda c: np.asarray(c, dtype=np.float64)
        ),
        st.integers(2, 120),
        st.integers(1, 16),
    )
    @settings(max_examples=60, deadline=None)
    def test_zones_equal_lone_cdp_per_zone(self, costs, r, rpc):
        """Tie-heavy costs on zones of unequal rank counts: each zone's
        counts come out of the right-aligned shared table as if solved
        alone."""
        zones = zone_ranges(costs, r, rpc)
        assume(len({hi - lo for _, _, lo, hi in zones}) > 1)
        expected = np.concatenate(
            [cdp_restricted(costs[a:b], hi - lo) for a, b, lo, hi in zones]
        )
        np.testing.assert_array_equal(cdp_restricted_zones(costs, zones), expected)

    @given(
        st.integers(1, 512),
        st.floats(0.1, 3.0),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_chunked_policy_equals_cdp_up_to_512_ranks(self, r, per_rank, seed, ties):
        """At most 512 ranks make one zone, so ``cdp-chunked`` (the
        guard's first tier) assigns exactly as unchunked ``cdp``."""
        rng = np.random.default_rng(seed)
        n = max(1, int(r * per_rank))
        costs = (
            rng.integers(0, 4, n).astype(np.float64) if ties
            else rng.exponential(1.0, n)
        )
        np.testing.assert_array_equal(
            get_policy("cdp-chunked").place(costs, r).assignment,
            get_policy("cdp").place(costs, r).assignment,
        )

    def test_chunking_quality_close_to_global(self):
        """Ablation guard: chunked CDP loses little vs global restricted CDP."""
        rng = np.random.default_rng(2)
        costs = rng.exponential(1.0, size=600)
        global_m = counts_makespan(costs, cdp_restricted(costs, 64))
        chunked_m = counts_makespan(
            costs, chunked_cdp_counts(costs, 64, ranks_per_chunk=16)
        )
        assert chunked_m <= global_m * 1.35
