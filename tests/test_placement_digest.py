"""Pinned placement parity: one SHA-256 over every policy's assignments.

Refactors of :mod:`repro.core` must keep every assignment bit for bit.
This test hashes the assignments of every registered policy (except
``guarded``, whose fallback depends on a wall-clock budget), the
``cplx:X`` / ``hetero-cplx:X`` shorthands, and multi-zone
``cdp-chunked`` / ``zonal`` configurations, on seeded exponential costs
at three rank counts, each with no context, a uniform context and a
skewed mixed-hardware context.  The constant was recorded before the
policy layer was consolidated; a mismatch means some assignment moved.
"""

import hashlib

import numpy as np

from repro.core import PlacementContext, get_policy
from repro.core.zonal import ZonalPolicy
from repro.simnet import hetero_cluster

#: SHA-256 over all cases below, recorded on the pre-refactor code.
EXPECTED_DIGEST = "8ed1277653d8613c7df47a58ff6873014db8af270dc5f7e4d9ccb32737d76aac"

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
