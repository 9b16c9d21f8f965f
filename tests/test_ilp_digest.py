"""Pinned exact makespan solves (paper §V-B's reference solver).

Both entry points of :mod:`repro.core.ilp` are pinned: the identical
machines solver ``solve_makespan_bnb`` and the uniform machines solver
``solve_hetero_makespan_bnb``, the latter at unit, equal non-unit and
mixed speeds.  The cases are the instances the LPT/ILP, integration,
heterogeneous and benchmark tests use, plus tie-heavy integer costs and
instances of up to 24 blocks.  Every case completes its search, so the
digest covers the assignment, the makespan and the ``optimal`` flag but
not the node count.  The constant was recorded with separate identical
and uniform machines searches; a mismatch means a solve changed.
"""

import hashlib

import numpy as np

from repro.core import solve_hetero_makespan_bnb, solve_makespan_bnb

#: SHA-256 over all cases below, recorded with the two separate searches.
EXPECTED_DIGEST = "28ca7db31a39b6cfd8fef50c0b13f749e45133f7aa85c823da7721b1f33683c6"

INF = float("inf")


def _identical_cases():
    """(label, costs, n_ranks) for :func:`solve_makespan_bnb`."""
    yield "graham", np.array([5.0, 5.0, 4.0, 4.0, 3.0, 3.0, 3.0]), 3
    yield "area", np.array([4.0, 3.0, 3.0, 2.0, 2.0]), 2
    yield "pairing", np.array([5.0, 4.0, 3.0]), 2
    yield "empty", np.array([]), 3
    yield "one", np.array([2.5]), 4
    rng = np.random.default_rng(0)
    for i in range(10):
        yield f"exp12-{i}", rng.exponential(1.0, size=12), 4
    rng = np.random.default_rng(42)
    for i in range(5):
        yield f"exp16-{i}", rng.exponential(1.0, size=16)[:13], 4
    rng = np.random.default_rng(0)
    for i in range(10):
        n = int(rng.integers(12, 15))
        r = int(rng.integers(3, 6))
        yield f"bench-{i}", rng.exponential(1.0, size=n), r
    rng = np.random.default_rng(5)
    for i, (n, r) in enumerate([(16, 3), (20, 2), (18, 6)]):
        yield f"ties-{i}", rng.integers(1, 8, n).astype(np.float64), r
    # Integer costs whose total divides evenly: the area bound is reachable.
    for i, (n, r, hi) in enumerate([(24, 8, 8), (24, 6, 8), (24, 4, 20), (24, 3, 30),
                                    (24, 2, 8), (18, 6, 8)]):
        costs = rng.integers(1, hi, n)
        costs[-1] += (-costs.sum()) % r
        yield f"even-ties-{i}", costs.astype(np.float64), r
    rng = np.random.default_rng(9)
    for i, (n, r) in enumerate([(24, 2), (22, 7), (21, 5)]):
        yield f"pareto-{i}", rng.pareto(1.5, size=n) + 0.1, r


def _uniform_cases():
    """(label, costs, speeds) for :func:`solve_hetero_makespan_bnb`."""
    for label, costs, r in _identical_cases():
        yield f"unit-{label}", costs, np.ones(r)
    rng = np.random.default_rng(3)
    for i in range(5):
        yield f"hetero-{i}", rng.exponential(1.0, size=9), np.array([2.0, 1.0, 1.0])
    rng = np.random.default_rng(11)
    speed_sets = [
        np.full(3, 2.0),
        np.array([3.0, 1.0]),
        np.array([1.0, 0.5, 0.5, 0.25]),
        np.array([1.0, 1.0, 0.5, 0.5]),
        np.array([1.0, 0.75, 0.5]),
    ]
    for i, speeds in enumerate(speed_sets):
        for n in (10, 14):
            yield f"mixed-{i}-{n}", rng.exponential(1.0, size=n), speeds
        yield f"mixed-ties-{i}", rng.integers(1, 6, 14).astype(np.float64), speeds


def _update(h, label, res):
    h.update(f"{label}|{float(res.makespan)!r}|{bool(res.optimal)}|".encode())
    h.update(np.asarray(res.assignment, dtype="<i8").tobytes())


def ilp_digest() -> str:
    h = hashlib.sha256()
    for label, costs, r in _identical_cases():
        res = solve_makespan_bnb(costs, r, time_limit_s=INF)
        assert res.optimal, label
        _update(h, label, res)
    for label, costs, speeds in _uniform_cases():
        res = solve_hetero_makespan_bnb(costs, speeds)
        assert res.optimal, label
        _update(h, label, res)
    return h.hexdigest()


def test_ilp_digest_is_pinned():
    assert ilp_digest() == EXPECTED_DIGEST
