"""Pinned exchange-pattern parity: one SHA-256 over every pattern array.

:meth:`ExchangePattern.from_mesh` turns a block neighbor graph plus an
assignment into the rank-pair arrays the BSP model steps over.  Any
rewrite of that aggregation must keep every array bit for bit, in the
same order and dtype.  This test hashes all fields of the patterns of a
reduced Sedov trajectory under three placements on three clusters (the
homogeneous sweep cluster, a mixed-NIC heterogeneous cluster and a
two-tier fabric that charges a cross-switch hop), plus an edgeless
graph, an all-on-one-rank assignment and non-default message weights.
The constant was recorded before the aggregation was rewritten.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.amr.sedov import SedovWorkload, scaled_config
from repro.core import get_policy
from repro.mesh.neighbors import NeighborGraph, NeighborKind
from repro.simnet import DEFAULT_FABRIC, Cluster, ExchangePattern, hetero_cluster

#: SHA-256 over all cases below, recorded on the pre-rewrite code.
EXPECTED_DIGEST = "6d96c27b5e20018638239ae38d6b99ff8cfdbb7e878595a15540811301fe0a15"

N_RANKS = 512
POLICIES = ("baseline", "cplx:50", "lpt")


def _clusters():
    two_tier = dataclasses.replace(DEFAULT_FABRIC, cross_switch_extra_s=2.5e-6)
    yield "sweep", Cluster(n_ranks=N_RANKS), DEFAULT_FABRIC
    yield "mixed-nic", hetero_cluster(
        N_RANKS, "gpu:0.25x1@100,cpu:1.0x2,old:1.5x1@10"
    ), DEFAULT_FABRIC
    yield "two-tier", Cluster(n_ranks=N_RANKS, nodes_per_switch=4), two_tier


def _update(h, label: str, pattern: ExchangePattern) -> None:
    h.update(f"{label}|n_ranks={pattern.n_ranks}|".encode())
    for field in dataclasses.fields(pattern):
        if field.name == "n_ranks":
            continue
        arr = np.asarray(getattr(pattern, field.name))
        h.update(f"{field.name}:{arr.dtype.str}:{arr.shape}|".encode())
        h.update(np.ascontiguousarray(arr).tobytes())


@pytest.fixture(scope="module")
def epochs():
    return SedovWorkload(scaled_config(N_RANKS, scale=8, steps=120)).full_trajectory()


def pattern_digest(epochs) -> str:
    h = hashlib.sha256()
    for ep in epochs:
        for name in POLICIES:
            assignment = get_policy(name).place(ep.base_costs, N_RANKS).assignment
            for label, cluster, fabric in _clusters():
                pattern = ExchangePattern.from_mesh(
                    ep.graph, assignment, ep.base_costs, cluster, fabric
                )
                _update(h, f"{ep.index}|{name}|{label}", pattern)

    last = epochs[-1]
    cluster = Cluster(n_ranks=N_RANKS)
    one_rank = np.zeros(len(last.keys), dtype=np.int64)
    _update(h, "one-rank", ExchangePattern.from_mesh(
        last.graph, one_rank, last.base_costs, cluster
    ))
    edgeless = NeighborGraph(
        last.keys, np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.int8)
    )
    spread = np.arange(len(last.keys), dtype=np.int64) % N_RANKS
    _update(h, "edgeless", ExchangePattern.from_mesh(
        edgeless, spread, last.base_costs, cluster
    ))
    weights = {NeighborKind.FACE: 3.0, NeighborKind.EDGE: 0.5, NeighborKind.VERTEX: 0.25}
    _update(h, "weights", ExchangePattern.from_mesh(
        last.graph, spread, last.base_costs, cluster, weights=weights
    ))
    return h.hexdigest()


def test_exchange_pattern_digest_is_pinned(epochs):
    assert pattern_digest(epochs) == EXPECTED_DIGEST
