"""Pinned LPT assignments on shapes that stress the round-batched path.

:func:`repro.core.lpt.lpt_assign` places whole rounds of blocks at once
and hands the rest to a per-block heap once rounds get short.  Rounds
shrink on tied loads, so these shapes are the adversarial ones: a
geometric tail of ever smaller costs, a tail of zero costs, all costs
equal, small integer costs with many ties, and nonzero (tied) initial
loads.  Most cases run at 8192 ranks; a few small rank counts sit on
both sides of the round threshold.  The constant was recorded with the
per-block heap loop, before rounds existed; a mismatch means some
block moved.
"""

import hashlib

import numpy as np

from repro.bench.distributions import make_costs
from repro.core import lpt_assign

#: SHA-256 over all cases below, recorded with the per-block heap loop.
EXPECTED_DIGEST = "0841686d1366602ddd4798927ab3a318c1814a5613286444b6dd022786de8145"

N_RANKS = 8192
N_BLOCKS = int(N_RANKS * 2.25)


def _shapes(n: int, seed: int):
    """(label, costs) for the adversarial cost shapes at ``n`` blocks."""
    rng = np.random.default_rng(seed)
    half = n // 2
    yield "exponential", make_costs("exponential", n, seed=seed)
    yield "pareto", make_costs("power-law", n, seed=seed)
    yield "geometric-tail", np.concatenate(
        [make_costs("power-law", n - half, seed=seed), 0.2 * 0.995 ** np.arange(half)]
    )
    yield "geometric", 0.9995 ** np.arange(n)
    yield "zero-tail", np.concatenate(
        [make_costs("exponential", n - half, seed=seed), np.zeros(half)]
    )
    yield "all-equal", np.full(n, 1.5)
    yield "integer-ties", rng.integers(1, 6, n).astype(np.float64)


def _cases():
    """(label, costs, n_ranks, initial_loads) for every pinned call."""
    for label, costs in _shapes(N_BLOCKS, N_RANKS):
        yield label, costs, N_RANKS, None
    rng = np.random.default_rng(1)
    tied = rng.integers(0, 4, N_RANKS).astype(np.float64)
    spread = rng.random(N_RANKS) * 3.0
    for label, costs in _shapes(N_BLOCKS, 7):
        yield f"{label}+tied-loads", costs, N_RANKS, tied
        yield f"{label}+loads", costs, N_RANKS, spread
    yield "fewer-blocks", make_costs("exponential", 5000, seed=3), N_RANKS, None
    for r in (1, 2, 33, 64, 127, 128, 129, 512):
        for label, costs in _shapes(int(r * 5.5) + 3, r):
            yield label, costs, r, None


def lpt_digest() -> str:
    h = hashlib.sha256()
    for label, costs, n_ranks, loads in _cases():
        assignment = lpt_assign(costs, n_ranks, initial_loads=loads)
        h.update(f"{label}|{n_ranks}|{loads is None}|".encode())
        h.update(np.asarray(assignment, dtype="<i8").tobytes())
    return h.hexdigest()


def test_lpt_digest_is_pinned():
    assert lpt_digest() == EXPECTED_DIGEST
