"""SharedPatternCache: bit-identical hits, content keys, LRU bounds,
per-run counters."""

import dataclasses

import numpy as np
import pytest

from repro.amr.driver import run_trajectory
from repro.core.metrics import message_stats
from repro.core.policy import get_policy
from repro.engine.types import DriverConfig
from repro.mesh.geometry import BlockIndex
from repro.mesh.neighbors import NeighborGraph
from repro.mesh.sfc import block_keys
from repro.perf.cache import SharedPatternCache
from repro.perf.supervisor import SWEEP_CONFIG, SupervisorConfig
from repro.resilience.experiment import small_workload
from repro.simnet.cluster import Cluster
from repro.simnet.runtime import ExchangePattern


@pytest.fixture(scope="module")
def epochs():
    return small_workload(32, 60)


@pytest.fixture(scope="module")
def cluster():
    return Cluster(n_ranks=32)


FABRIC = DriverConfig().fabric


def _costs(epoch, seed):
    rng = np.random.default_rng(seed)
    return epoch.base_costs * rng.uniform(0.5, 1.5, len(epoch.base_costs))


def _assignment(epoch, cluster):
    return get_policy("baseline").place(epoch.base_costs, cluster.n_ranks).assignment


def assert_patterns_identical(a: ExchangePattern, b: ExchangePattern):
    for f in dataclasses.fields(ExchangePattern):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if isinstance(va, np.ndarray):
            assert va.dtype == vb.dtype and np.array_equal(va, vb), f.name
        else:
            assert va == vb, f.name


def assert_direct(pattern, graph, assignment, costs, cluster, fabric=FABRIC):
    """``pattern`` equals ``from_mesh`` bit for bit, and its message
    counts equal ``message_stats``."""
    direct = ExchangePattern.from_mesh(graph, assignment, costs, cluster, fabric)
    assert_patterns_identical(pattern, direct)
    ms = message_stats(graph, assignment, cluster.ranks_per_node)
    assert pattern.message_counts(graph.n_edges) == (ms.intra_rank, ms.local, ms.remote)


class TestLookup:
    def test_hit_is_bit_identical_to_from_mesh(self, epochs, cluster):
        cache = SharedPatternCache(4)
        epoch = epochs[0]
        assignment = _assignment(epoch, cluster)
        cache.lookup(epoch.graph, assignment, _costs(epoch, 1), cluster, FABRIC)
        # Second lookup with *different* costs must hit, yet match an
        # uncached recomputation bit for bit (only loads depends on costs).
        costs = _costs(epoch, 2)
        hit = cache.lookup(epoch.graph, assignment, costs, cluster, FABRIC)
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert_direct(hit, epoch.graph, assignment, costs, cluster)

    def test_equal_content_graph_hits(self, epochs, cluster):
        cache = SharedPatternCache(4)
        epoch = epochs[0]
        assignment = _assignment(epoch, cluster)
        twin = NeighborGraph(
            epoch.graph.keys.copy(), epoch.graph.edges.copy(),
            epoch.graph.kinds.copy(),
        )
        assert twin is not epoch.graph
        cache.lookup(epoch.graph, assignment, epoch.base_costs, cluster, FABRIC)
        hit = cache.lookup(twin, assignment, epoch.base_costs, cluster, FABRIC)
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert_direct(hit, twin, assignment, epoch.base_costs, cluster)

    def test_assignment_change_misses(self, epochs, cluster):
        cache = SharedPatternCache(4)
        epoch = epochs[0]
        assignment = _assignment(epoch, cluster)
        costs = _costs(epoch, 1)
        cache.lookup(epoch.graph, assignment, costs, cluster, FABRIC)
        moved = assignment.copy()
        moved[0] = (moved[0] + 1) % cluster.n_ranks
        cache.lookup(epoch.graph, moved, costs, cluster, FABRIC)
        assert cache.stats.misses == 2 and cache.stats.hits == 0

    def test_new_graph_misses(self, epochs, cluster):
        assert epochs[0].graph is not epochs[-1].graph
        cache = SharedPatternCache(4)
        for epoch in (epochs[0], epochs[-1]):
            assignment = _assignment(epoch, cluster)
            cache.lookup(epoch.graph, assignment, epoch.base_costs, cluster, FABRIC)
        assert cache.stats.misses == 2 and cache.stats.hits == 0

    def test_new_cluster_misses(self, epochs, cluster):
        cache = SharedPatternCache(4)
        epoch = epochs[0]
        assignment = _assignment(epoch, cluster)
        cache.lookup(epoch.graph, assignment, epoch.base_costs, cluster, FABRIC)
        shrunk = cluster.evict_nodes([0])
        assert shrunk is not cluster
        remapped = np.clip(assignment, 0, shrunk.n_ranks - 1)
        cache.lookup(epoch.graph, remapped, epoch.base_costs, shrunk, FABRIC)
        assert cache.stats.misses == 2 and cache.stats.hits == 0

    def test_nic_tier_change_misses(self, epochs, cluster):
        # The slower endpoint's NIC sets a remote pair's bandwidth, so a
        # cluster differing only in NIC tiers needs its own entry.
        cache = SharedPatternCache(4)
        epoch = epochs[0]
        assignment = _assignment(epoch, cluster)
        cache.lookup(epoch.graph, assignment, epoch.base_costs, cluster, FABRIC)
        slow_nic = dataclasses.replace(
            cluster, node_nic_gbps=np.array([40.0, 10.0])
        )
        result = cache.lookup(
            epoch.graph, assignment, epoch.base_costs, slow_nic, FABRIC
        )
        assert cache.stats.misses == 2 and cache.stats.hits == 0
        assert_direct(result, epoch.graph, assignment, epoch.base_costs, slow_nic)

    def test_new_fabric_misses(self, epochs, cluster):
        cache = SharedPatternCache(4)
        epoch = epochs[0]
        assignment = _assignment(epoch, cluster)
        slow = dataclasses.replace(
            FABRIC, remote_latency_s=2 * FABRIC.remote_latency_s
        )
        for fabric in (FABRIC, slow):
            result = cache.lookup(
                epoch.graph, assignment, epoch.base_costs, cluster, fabric
            )
        assert cache.stats.misses == 2 and cache.stats.hits == 0
        assert_direct(
            result, epoch.graph, assignment, epoch.base_costs, cluster, slow
        )

    def test_lru_eviction(self, epochs, cluster):
        cache = SharedPatternCache(2)
        epoch = epochs[0]
        base = _assignment(epoch, cluster)
        variants = []
        for i in range(3):
            a = base.copy()
            a[0] = i % cluster.n_ranks
            variants.append(a)
        for a in variants:
            cache.lookup(epoch.graph, a, epoch.base_costs, cluster, FABRIC)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # The oldest entry (variants[0]) was evicted: looking it up misses.
        cache.lookup(epoch.graph, variants[0], epoch.base_costs, cluster, FABRIC)
        assert cache.stats.misses == 4 and cache.stats.hits == 0
        assert cache.stats.evictions == 2

    def test_store_size_must_be_positive(self):
        with pytest.raises(ValueError):
            SharedPatternCache(0)

    def test_handle_counters_are_per_run(self, epochs, cluster):
        cache = SharedPatternCache(4)
        epoch = epochs[0]
        assignment = _assignment(epoch, cluster)
        first, second = cache.handle(), cache.handle()
        first.lookup(epoch.graph, assignment, epoch.base_costs, cluster, FABRIC)
        second.lookup(epoch.graph, assignment, epoch.base_costs, cluster, FABRIC)
        second.lookup(epoch.graph, assignment, epoch.base_costs, cluster, FABRIC)
        assert (first.stats.hits, first.stats.misses) == (0, 1)
        assert (second.stats.hits, second.stats.misses) == (2, 0)
        assert (cache.stats.hits, cache.stats.misses) == (2, 1)


class TestGraphFingerprint:
    def test_equal_graphs_equal_fingerprints(self, epochs):
        g = epochs[0].graph
        twin = NeighborGraph(g.keys.copy(), g.edges.copy(), g.kinds.copy())
        fp = SharedPatternCache._graph_fingerprint
        assert fp(twin) == fp(g)

    @pytest.mark.parametrize("change", ["level", "coords"])
    def test_one_block_differs(self, epochs, change):
        g = epochs[0].graph
        blocks = list(g.blocks)
        b = blocks[-1]
        blocks[-1] = (
            BlockIndex(b.level + 1, b.coords) if change == "level"
            else BlockIndex(b.level, (b.coords[0] + 1,) + b.coords[1:])
        )
        other = NeighborGraph(block_keys(blocks), g.edges.copy(), g.kinds.copy())
        fp = SharedPatternCache._graph_fingerprint
        assert fp(other) != fp(g)

    def test_keys_only_graph_needs_no_blocks(self, epochs):
        g = epochs[0].graph
        keyed = NeighborGraph(g.keys, g.edges, g.kinds)
        assert SharedPatternCache._graph_fingerprint(keyed) == (
            SharedPatternCache._graph_fingerprint(g)
        )
        assert keyed._blocks is None


class TestEngineIntegration:
    def test_cached_run_equals_uncached(self, epochs, cluster):
        policy = get_policy("baseline")
        base = dict(use_measured_costs=False, placement_charge_s=0.002)
        config = DriverConfig(**base)
        # The engine takes the store setting from the sweep running it.
        scope = SWEEP_CONFIG.set(SupervisorConfig(shared_pattern_store=True))
        try:
            run_trajectory(policy, epochs, cluster, config)  # warm the store
            cached = run_trajectory(policy, epochs, cluster, config)
        finally:
            SWEEP_CONFIG.reset(scope)
        uncached = run_trajectory(policy, epochs, cluster, config)
        assert cached.pattern_cache_hits > 0
        assert cached.pattern_cache_misses == 0
        assert uncached.pattern_cache_hits == uncached.pattern_cache_misses == 0
        for f in dataclasses.fields(type(cached)):
            if f.name == "collector" or f.name.startswith("pattern_cache_"):
                continue
            if f.name == "placement_s_max":    # host-measured
                continue
            assert getattr(cached, f.name) == getattr(uncached, f.name), f.name
        assert cached.collector.steps_table() == uncached.collector.steps_table()
