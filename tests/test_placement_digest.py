"""Pinned placement parity: one SHA-256 over every policy's assignments.

Refactors of :mod:`repro.core` must keep every assignment bit for bit.
This test hashes the assignments of every registered policy (except
``guarded``, whose fallback depends on a wall-clock budget), the
``cplx:X`` / ``hetero-cplx:X`` shorthands, and multi-zone
``cdp-chunked`` / ``zonal`` configurations, on seeded exponential costs
at three rank counts, each with no context, a uniform context and a
skewed mixed-hardware context.  The constant was recorded before the
policy layer was consolidated; a mismatch means some assignment moved.

Those costs are tie-free.  A second pin covers ties, where the
restricted DP's "ceil only if strictly better" rule and LPT's rank-ID
tie-break decide the assignment: all-ones, integers 0-3 and exponential
costs rounded to 0.1, at the sweep's 512 ranks x 2,808 blocks (one
restricted-CDP zone) and at 8192 ranks x 18,432 blocks (16 zones).
"""

import hashlib

import numpy as np

from repro.core import PlacementContext, get_policy
from repro.core.zonal import ZonalPolicy
from repro.simnet import hetero_cluster

#: SHA-256 over all cases below, recorded on the pre-refactor code.
EXPECTED_DIGEST = "8ed1277653d8613c7df47a58ff6873014db8af270dc5f7e4d9ccb32737d76aac"

#: SHA-256 over the tie-heavy cases, recorded before the restricted-CDP
#: row update and backtrack were rewritten.
TIE_HEAVY_DIGEST = "83c80b68ac5cd51d7cecc5ef09949e035fba8a84d2f658f3036b08b78e6941ba"

RANK_COUNTS = (16, 48, 112)

POLICY_CASES = (
    ("baseline", lambda: get_policy("baseline")),
    ("cdp", lambda: get_policy("cdp")),
    ("cdp-chunked", lambda: get_policy("cdp-chunked")),
    ("cdp-full", lambda: get_policy("cdp-full")),
    ("cplx", lambda: get_policy("cplx")),
    ("hetero-cplx", lambda: get_policy("hetero-cplx")),
    ("hetero-ilp", lambda: get_policy("hetero-ilp")),
    ("hetero-lpt", lambda: get_policy("hetero-lpt")),
    ("lpt", lambda: get_policy("lpt")),
    ("zonal", lambda: get_policy("zonal")),
    ("cplx:0", lambda: get_policy("cplx:0")),
    ("cplx:50", lambda: get_policy("cplx:50")),
    ("cplx:100", lambda: get_policy("cplx:100")),
    ("hetero-cplx:25", lambda: get_policy("hetero-cplx:25")),
    ("cdp-chunked/8", lambda: get_policy("cdp-chunked", ranks_per_chunk=8)),
    ("cplx:50/8", lambda: get_policy("cplx:50", ranks_per_chunk=8)),
    ("hetero-cplx:25/8", lambda: get_policy("hetero-cplx:25", ranks_per_chunk=8)),
    ("zonal/16", lambda: get_policy("zonal", ranks_per_zone=16)),
    (
        "zonal/40/hetero-cplx:50",
        lambda: ZonalPolicy(
            inner_factory=lambda: get_policy("hetero-cplx:50"), ranks_per_zone=40
        ),
    ),
)


def _contexts(n_ranks):
    yield "none", None
    yield "uniform", PlacementContext.homogeneous(n_ranks, speed=2.0)
    yield "skewed", hetero_cluster(
        n_ranks, "fast:0.5x1,slow:1.0x3"
    ).placement_context()


def placement_digest() -> str:
    h = hashlib.sha256()
    for n_ranks in RANK_COUNTS:
        rng = np.random.default_rng(1000 + n_ranks)
        costs = rng.exponential(1.0, size=5 * n_ranks // 2)
        for ctx_label, ctx in _contexts(n_ranks):
            for label, make in POLICY_CASES:
                assignment = make().place(costs, n_ranks, ctx=ctx).assignment
                h.update(f"{label}|{ctx_label}|{n_ranks}|".encode())
                h.update(np.asarray(assignment, dtype="<i8").tobytes())
    return h.hexdigest()


def test_placement_digest_is_pinned():
    assert placement_digest() == EXPECTED_DIGEST


def _tie_heavy_costs(n: int, seed: int):
    rng = np.random.default_rng(seed)
    yield "ones", np.ones(n)
    yield "int0-3", rng.integers(0, 4, size=n).astype(np.float64)
    yield "exp-0.1", np.round(rng.exponential(1.0, size=n), 1)


#: (n_ranks, n_blocks, policies, contexts) of the tie-heavy pin
TIE_HEAVY_CASES = (
    (
        512,
        2808,
        ("cdp", "cplx:0", "cplx:25", "cplx:50", "cplx:75", "cplx:100",
         "hetero-cplx:100"),
        ("none", "skewed"),
    ),
    (8192, 18432, ("cdp-chunked", "cplx:50", "cplx:100"), ("none",)),
)


def tie_heavy_digest() -> str:
    h = hashlib.sha256()
    for n_ranks, n_blocks, policies, ctx_labels in TIE_HEAVY_CASES:
        contexts = dict(_contexts(n_ranks))
        for cost_label, costs in _tie_heavy_costs(n_blocks, n_ranks):
            for ctx_label in ctx_labels:
                for name in policies:
                    placement = get_policy(name).place(
                        costs, n_ranks, ctx=contexts[ctx_label]
                    )
                    h.update(f"{name}|{cost_label}|{ctx_label}|{n_ranks}|".encode())
                    h.update(np.asarray(placement.assignment, dtype="<i8").tobytes())
    return h.hexdigest()


def test_tie_heavy_digest_is_pinned():
    assert tie_heavy_digest() == TIE_HEAVY_DIGEST
