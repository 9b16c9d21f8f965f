"""Tests for machine specs, cluster topology, faults, and tuning knobs."""


import numpy as np
import pytest

from repro.simnet import (
    Cluster,
    DEFAULT_NIC_GBPS,
    FabricSpec,
    FaultModel,
    MachineSpec,
    NodeClass,
    TUNED,
    TuningConfig,
    UNTUNED,
    hetero_cluster,
    parse_node_classes,
)


class TestMachineSpec:
    def test_defaults_are_paper_like(self):
        m = MachineSpec()
        assert m.cores_per_node == 16  # Xeon E5-2670
        assert m.throttle_factor == 4.0

    def test_validation(self):
        with pytest.raises(ValueError):
            MachineSpec(cores_per_node=0)
        with pytest.raises(ValueError):
            MachineSpec(block_compute_s=-1)
        with pytest.raises(ValueError):
            MachineSpec(throttle_factor=0.5)


class TestFabricSpec:
    def test_collective_cost_grows_logarithmically(self):
        f = FabricSpec()
        c512 = f.collective_cost_s(512)
        c4096 = f.collective_cost_s(4096)
        assert c4096 > c512
        assert c4096 - c512 == pytest.approx(3 * f.collective_per_level_s)

    def test_positive_fields_enforced(self):
        with pytest.raises(ValueError):
            FabricSpec(local_latency_s=0.0)


class TestCluster:
    def test_topology(self):
        c = Cluster(n_ranks=40)
        assert c.n_nodes == 3  # ceil(40/16)
        assert c.node_of(0) == 0
        assert c.node_of(16) == 1
        assert c.node_of(np.array([15, 16])).tolist() == [0, 1]

    def test_throttle_sets_whole_node(self):
        c = Cluster(n_ranks=32).throttle_nodes([1])
        speed = c.rank_speed_factor()
        assert (speed[:16] == 1.0).all()
        assert (speed[16:] == 4.0).all()

    def test_throttle_bad_node_rejected(self):
        with pytest.raises(ValueError):
            Cluster(n_ranks=16).throttle_nodes([5])

    def test_unhealthy_and_prune(self):
        c = Cluster(n_ranks=64).throttle_nodes([0, 2])
        assert c.unhealthy_nodes() == [0, 2]
        pruned = c.pruned()
        assert pruned.n_nodes == 2
        assert pruned.unhealthy_nodes() == []
        assert pruned.n_ranks == 32

    def test_prune_healthy_is_noop(self):
        c = Cluster(n_ranks=16)
        assert c.pruned() is c

    def test_prune_everything_fails(self):
        c = Cluster(n_ranks=16).throttle_nodes([0])
        with pytest.raises(RuntimeError):
            c.pruned()

    def test_speed_factor_validation(self):
        with pytest.raises(ValueError):
            Cluster(n_ranks=16, node_speed_factor=np.array([0.5]))
        with pytest.raises(ValueError):
            Cluster(n_ranks=16, node_speed_factor=np.ones(3))

    def test_prune_partial_last_node_rank_count(self):
        # Regression: pruning used to credit the partial last node with a
        # full ``ranks_per_node`` worth of ranks.  40 ranks = two full
        # nodes + one 8-rank node; dropping node 0 must leave 16 + 8.
        c = Cluster(n_ranks=40).throttle_nodes([0])
        pruned = c.pruned()
        assert pruned.n_nodes == 2
        assert pruned.n_ranks == 24  # the old bug reported 32

    def test_prune_rank_count_matches_per_node_sum(self):
        for n_ranks in (17, 33, 40, 47, 64):
            for bad in ([0], [1], [0, 1]):
                if len(bad) >= -(-n_ranks // 16):
                    continue
                c = Cluster(n_ranks=n_ranks).throttle_nodes(bad)
                keep = [i for i in range(c.n_nodes) if i not in bad]
                expect = sum(
                    min(16, n_ranks - 16 * i) for i in keep
                )
                assert c.pruned().n_ranks == expect, (n_ranks, bad)


class TestNodeClasses:
    def test_nodeclass_validation(self):
        with pytest.raises(ValueError):
            NodeClass(name="", speed=1.0)
        with pytest.raises(ValueError):
            NodeClass(name="a", speed=0.0)
        with pytest.raises(ValueError):
            NodeClass(name="a", speed=1.0, nic_gbps=-1.0)

    def test_parse_grammar(self):
        classes = parse_node_classes("fast:0.5x16,slow:1.0x48@10")
        assert [c.name for c, _ in classes] == ["fast", "slow"]
        (fast, n_fast), (slow, n_slow) = classes
        assert fast.speed == pytest.approx(2.0)  # time 0.5 => 2x throughput
        assert fast.nic_gbps == DEFAULT_NIC_GBPS
        assert (n_fast, n_slow) == (16, 48)
        assert slow.speed == pytest.approx(1.0)
        assert slow.nic_gbps == pytest.approx(10.0)

    @pytest.mark.parametrize(
        "bad", ["", "fast", "fast:x4", "fast:0.5", "fast:0x4", "a:1.0x0",
                "a:1.0x4@0", "a:1.0x4@x"]
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_node_classes(bad)

    def test_hetero_cluster_allocation_scales_template(self):
        # 64 ranks -> 4 nodes; a 16/48 template scales to 1 fast + 3 slow.
        c = hetero_cluster(64, "fast:0.5x16,slow:1.0x48")
        assert c.n_nodes == 4
        assert c.node_speed.tolist() == [2.0, 1.0, 1.0, 1.0]
        assert c.is_heterogeneous

    def test_hetero_cluster_every_class_at_least_plausible(self):
        c = hetero_cluster(512, "a:0.5x1,b:1.0x1,c:2.0x2")
        assert c.n_nodes == 32
        counts = {s: int((c.node_speed == s).sum()) for s in (2.0, 1.0, 0.5)}
        assert counts == {2.0: 8, 1.0: 8, 0.5: 16}

    def test_rank_capacity_and_nic(self):
        c = hetero_cluster(32, "fast:0.5x1,slow:1.0x1@10")
        cap = c.rank_capacity()
        assert (cap[:16] == 2.0).all() and (cap[16:] == 1.0).all()
        nic = c.rank_nic()
        assert (nic[:16] == DEFAULT_NIC_GBPS).all() and (nic[16:] == 10.0).all()
        homo = Cluster(n_ranks=8)
        assert (homo.rank_capacity() == 1.0).all()
        assert (homo.rank_nic() == DEFAULT_NIC_GBPS).all()
        assert not homo.is_heterogeneous

    def test_rank_time_factor_is_legacy_when_homogeneous(self):
        c = Cluster(n_ranks=32).throttle_nodes([1])
        assert np.array_equal(c.rank_time_factor(), c.rank_speed_factor())

    def test_rank_time_factor_compounds_speed_and_fault(self):
        # fast node throttled by 4x: time factor 4 / 2 = 2.
        c = hetero_cluster(32, "fast:0.5x1,slow:1.0x1").throttle_nodes([0])
        tf = c.rank_time_factor()
        assert tf[0] == pytest.approx(4.0 / 2.0)
        assert tf[16] == pytest.approx(1.0)

    def test_placement_context_roundtrip(self):
        ctx = hetero_cluster(64, "fast:0.5x16,slow:1.0x48").placement_context()
        assert ctx.n_ranks == 64
        assert not ctx.uniform_speed
        assert ctx.total_capacity() == pytest.approx(16 * 2.0 + 48 * 1.0)

    def test_class_arrays_survive_prune_evict_throttle(self):
        c = hetero_cluster(64, "fast:0.5x1,slow:1.0x3@10").throttle_nodes([1])
        pruned = c.pruned()
        assert pruned.node_speed.tolist() == [2.0, 1.0, 1.0]
        assert pruned.node_nic_gbps.tolist() == [
            DEFAULT_NIC_GBPS, 10.0, 10.0,
        ]
        evicted = c.evict_nodes([0])
        assert evicted.node_speed.tolist() == [1.0, 1.0, 1.0]
        assert (evicted.node_nic_gbps == 10.0).all()

    def test_cluster_class_array_validation(self):
        with pytest.raises(ValueError):
            Cluster(n_ranks=32, node_speed=np.ones(3))
        with pytest.raises(ValueError):
            Cluster(n_ranks=32, node_speed=np.array([1.0, -2.0]))
        with pytest.raises(ValueError):
            Cluster(n_ranks=32, node_nic_gbps=np.array([40.0, 0.0]))


class TestFaults:
    def test_apply_throttles_fraction(self):
        c = Cluster(n_ranks=160)  # 10 nodes
        fm = FaultModel(throttled_node_fraction=0.3, seed=1)
        sick = fm.apply_to_cluster(c)
        assert len(sick.unhealthy_nodes()) == 3

    def test_apply_deterministic(self):
        c = Cluster(n_ranks=160)
        fm = FaultModel(throttled_node_fraction=0.2, seed=9)
        assert (
            fm.apply_to_cluster(c).unhealthy_nodes()
            == fm.apply_to_cluster(c).unhealthy_nodes()
        )

    def test_at_least_one_node_when_fraction_positive(self):
        c = Cluster(n_ranks=16)
        sick = FaultModel(throttled_node_fraction=0.01).apply_to_cluster(c)
        assert len(sick.unhealthy_nodes()) == 1

    def test_sampled_stalls_zero_with_drain_queue(self):
        fm = FaultModel(ack_loss_prob=0.5)
        rng = np.random.default_rng(0)
        out = fm.sample_ack_stalls(np.full(8, 100), True, rng)
        assert (out == 0).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultModel(throttled_node_fraction=1.5)
        with pytest.raises(ValueError):
            FaultModel(ack_loss_prob=-0.1)


class TestTuning:
    def test_presets(self):
        assert TUNED.send_priority and TUNED.drain_queue
        assert not UNTUNED.send_priority and not UNTUNED.drain_queue
        assert UNTUNED.shm_queue_slots < TUNED.shm_queue_slots

    def test_queue_sigma_monotone_in_pressure(self):
        t = TuningConfig(shm_queue_slots=64)
        assert t.queue_contention_sigma(640) > t.queue_contention_sigma(6.4)

    def test_queue_sigma_small_when_tuned(self):
        assert TUNED.queue_contention_sigma(50) < 0.1
        assert UNTUNED.queue_contention_sigma(50) > 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            TuningConfig(shm_queue_slots=0)
