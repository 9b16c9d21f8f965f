"""Pinned placement parity at scalebench scale, plus edge shapes.

:mod:`tests.test_placement_digest` pins every policy at up to 112
ranks, where chunked CDP runs a handful of zones.  This pin hashes the
policies built on chunked CDP (``cdp-chunked``, ``cplx:0``, ``cplx:50``,
``cplx:100``) at 4096 and 8192 ranks with 2.25 blocks per rank on all
three scalebench cost distributions, where every zone of
:func:`~repro.core.chunked.zone_ranges` is a full 512-rank DP, and on
edge shapes: one rank, more ranks than blocks (``f == 0``), ``n``
divisible by ``r`` (``e == 0``), no blocks, and zones with unequal rank
shares (one block holding half the cost gives one zone of 4096 ranks
beside 511 small ones, which the solver splits into several batches).
The constant was recorded before the restricted-CDP solver was batched
over zones; a mismatch means some assignment moved.

A Hypothesis property checks the batching against the one-zone path:
:func:`~repro.core.chunked.chunked_cdp_counts` equals the concatenation
of :func:`~repro.core.cdp.cdp_restricted` over the zones.
"""

import hashlib
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.distributions import COST_DISTRIBUTIONS, make_costs
from repro.core import cdp_restricted, chunked_cdp_counts, get_policy
from repro.core import cdp
from repro.core.chunked import zone_ranges

#: SHA-256 over all cases below, recorded before the zone-batched solver.
EXPECTED_DIGEST = "8d2157825d299f8f369e5d9cc9b88dc43d526abf8cbc49a2738808252fbade23"

POLICIES = ("cdp-chunked", "cplx:0", "cplx:50", "cplx:100")

SCALES = (4096, 8192)


def _ramp(n: int) -> np.ndarray:
    """Costs rising along the SFC: zones get unequal rank shares."""
    return 0.2 + np.linspace(0.0, 4.0, n) ** 2


def _edge_cases():
    """(label, costs, n_ranks, ranks_per_chunk) for the edge shapes."""
    exp = lambda n, seed: make_costs("exponential", n, seed=seed)  # noqa: E731
    yield "one-rank", exp(37, 1), 1, 512
    yield "one-block-one-rank", exp(1, 2), 1, 512
    yield "no-blocks", np.empty(0), 64, 512
    yield "f0-one-zone", exp(300, 3), 512, 512
    yield "f0-zones", exp(700, 4), 1600, 512
    yield "e0-zones", exp(2 * 2048, 5), 2048, 512
    yield "e0-one-zone", exp(3 * 96, 6), 96, 512
    yield "unequal-shares", _ramp(int(1500 * 2.25)), 1500, 512
    yield "unequal-shares-small", _ramp(900), 300, 37
    heavy = np.ones(2000)
    heavy[100] = 3000.0
    yield "one-heavy-zone", heavy, 1024, 128
    skewed = exp(int(8192 * 2.25), 9)
    skewed[9000] = skewed.sum()
    yield "skewed-many-zones", skewed, 8192, 16
    yield "rank-per-zone", exp(250, 7), 64, 1
    yield "zones-of-7", exp(1000, 8), 333, 7


def placement_scale_digest() -> str:
    h = hashlib.sha256()
    for n_ranks in SCALES:
        for dist in COST_DISTRIBUTIONS:
            costs = make_costs(dist, int(n_ranks * 2.25), seed=n_ranks)
            for name in POLICIES:
                assignment = get_policy(name).place(costs, n_ranks).assignment
                h.update(f"{name}|{dist}|{n_ranks}|".encode())
                h.update(np.asarray(assignment, dtype="<i8").tobytes())
    for label, costs, n_ranks, rpc in _edge_cases():
        for name in POLICIES:
            policy = get_policy(name, ranks_per_chunk=rpc)
            assignment = policy.place(costs, n_ranks).assignment
            h.update(f"{name}|{label}|{n_ranks}|{rpc}|".encode())
            h.update(np.asarray(assignment, dtype="<i8").tobytes())
    return h.hexdigest()


def test_placement_scale_digest_is_pinned():
    assert placement_scale_digest() == EXPECTED_DIGEST


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(0.0, 10.0), min_size=0, max_size=300),
    st.integers(1, 200),
    st.integers(1, 64),
    st.sampled_from([cdp._BATCH_BYTES, 30_000, 1]),
)
def test_chunked_counts_equal_per_zone_cdp(costs, n_ranks, ranks_per_chunk, batch_bytes):
    """Batched zones (all in one batch, a few per batch, one per batch)."""
    costs = np.asarray(costs, dtype=np.float64)
    expected = np.concatenate([
        cdp_restricted(costs[a:b], hi - lo)
        for a, b, lo, hi in zone_ranges(costs, n_ranks, ranks_per_chunk)
    ])
    with mock.patch.object(cdp, "_BATCH_BYTES", batch_bytes):
        got = chunked_cdp_counts(costs, n_ranks, ranks_per_chunk)
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)
