"""Resilience subsystem tests: fault timelines, eviction, guards,
checkpoint/restart, online mitigation, and the three-arm E2E scenario.
"""

import dataclasses

import numpy as np
import pytest

from repro.amr.driver import DriverConfig, run_trajectory
from repro.core.policy import PlacementPolicy, get_policy
from repro.resilience import (
    GuardedPolicy,
    HealthMonitor,
    MitigationEngine,
    ResilienceConfig,
    UNMITIGATED,
    run_resilient_trajectory,
)
from repro.resilience.experiment import (
    ResilienceExperimentConfig,
    run_resilience_experiment,
    small_workload,
)
from repro.simnet.cluster import Cluster
from repro.simnet.faults import (
    FabricDegradation,
    FaultModel,
    FaultTimeline,
    NodeCrash,
    ThrottleOnset,
)
from repro.simnet.tuning import TUNED
from repro.telemetry.anomaly import detect_throttled_nodes, detect_wait_spikes


@pytest.fixture(scope="module")
def epochs128():
    return small_workload(128, 200)


@pytest.fixture(scope="module")
def cluster128():
    return Cluster(n_ranks=128)


# --------------------------------------------------------------------- #
# Fault events and timelines
# --------------------------------------------------------------------- #


class TestFaultEvents:
    def test_throttle_onset_validation(self):
        with pytest.raises(ValueError, match="at least one node"):
            ThrottleOnset(step=5, nodes=())
        with pytest.raises(ValueError, match="duplicate"):
            ThrottleOnset(step=5, nodes=(1, 1))
        with pytest.raises(ValueError, match=">= 0"):
            ThrottleOnset(step=-1, nodes=(0,))
        with pytest.raises(ValueError, match="factor"):
            ThrottleOnset(step=0, nodes=(0,), factor=0.5)

    def test_node_crash_validation(self):
        with pytest.raises(ValueError):
            NodeCrash(step=-1, node=0)
        with pytest.raises(ValueError):
            NodeCrash(step=0, node=-2)

    def test_fabric_degradation_window(self):
        with pytest.raises(ValueError, match="empty or inverted"):
            FabricDegradation(step=10, end_step=10, ack_loss_prob=0.1)
        with pytest.raises(ValueError):
            FabricDegradation(step=0, end_step=5, ack_loss_prob=1.5)

    def test_timeline_rejects_double_crash(self):
        with pytest.raises(ValueError, match="crash once"):
            FaultTimeline(
                events=(NodeCrash(step=5, node=2), NodeCrash(step=9, node=2))
            )

    def test_timeline_sorts_events(self):
        tl = FaultTimeline(
            events=(
                NodeCrash(step=50, node=1),
                ThrottleOnset(step=10, nodes=(0,)),
            )
        )
        assert [e.step for e in tl.events] == [10, 50]

    def test_static_timeline_is_degenerate(self):
        tl = FaultTimeline.static(FaultModel(throttled_node_fraction=0.25))
        assert tl.events == ()
        assert tl.crashes_in(0, 10**9) == []
        assert tl.throttle_onsets_in(0, 10**9) == []
        assert tl.fault_model_at(123) == tl.base

    def test_fault_model_at_folds_degradation_window(self):
        base = FaultModel(ack_loss_prob=0.001, ack_recovery_s=0.005)
        tl = FaultTimeline(
            base=base,
            events=(
                FabricDegradation(
                    step=10, end_step=20, ack_loss_prob=0.05, ack_recovery_s=0.1
                ),
            ),
        )
        assert tl.fault_model_at(5) == base
        inside = tl.fault_model_at(15)
        assert inside.ack_loss_prob == 0.05
        assert inside.ack_recovery_s == 0.1
        assert tl.fault_model_at(20) == base  # half-open window

    def test_fault_model_seed_validation(self):
        with pytest.raises(ValueError, match="seed must be an integer"):
            FaultModel(seed="abc")
        with pytest.raises(ValueError, match="seed must be >= 0"):
            FaultModel(seed=-1)
        with pytest.raises(ValueError, match="seed must be an integer"):
            FaultModel(seed=True)

    def test_throttled_node_ids_deterministic_and_bounded(self):
        m = FaultModel(throttled_node_fraction=0.3, seed=9)
        a = m.throttled_node_ids(16)
        assert a == m.throttled_node_ids(16)
        assert len(a) == 5 and all(0 <= n < 16 for n in a)
        # positive fraction on a tiny cluster still picks >= 1 node
        assert len(FaultModel(throttled_node_fraction=0.01).throttled_node_ids(4)) == 1
        assert FaultModel().throttled_node_ids(4) == []


# --------------------------------------------------------------------- #
# Cluster hardening: throttle + eviction
# --------------------------------------------------------------------- #


class TestClusterEviction:
    def test_throttle_rejects_duplicates(self):
        c = Cluster(n_ranks=64)
        with pytest.raises(ValueError, match="twice"):
            c.throttle_nodes([1, 1])

    def test_throttle_rejects_out_of_range(self):
        c = Cluster(n_ranks=64)  # 4 nodes
        with pytest.raises(ValueError, match="out of range"):
            c.throttle_nodes([4])
        with pytest.raises(ValueError, match="out of range"):
            c.throttle_nodes([-1])

    def test_throttle_rejects_bad_factor(self):
        with pytest.raises(ValueError, match="factor"):
            Cluster(n_ranks=64).throttle_nodes([0], factor=0.5)

    def test_evict_rejects_duplicates_and_range(self):
        c = Cluster(n_ranks=64)
        with pytest.raises(ValueError, match="twice"):
            c.evict_nodes([2, 2])
        with pytest.raises(ValueError, match="out of range"):
            c.evict_nodes([9])

    def test_evict_all_nodes_refused(self):
        c = Cluster(n_ranks=64)
        with pytest.raises(RuntimeError, match="every node"):
            c.evict_nodes([0, 1, 2, 3])

    def test_evict_renumbers_densely(self):
        c = Cluster(n_ranks=64).throttle_nodes([3])
        out = c.evict_nodes([1])
        assert out.n_nodes == 3
        assert out.n_ranks == 48
        # survivor health state carries over: old node 3 is new node 2
        assert out.node_speed_factor[2] == c.node_speed_factor[3]

    def test_evict_partial_last_node(self):
        c = Cluster(n_ranks=56)  # nodes of 16,16,16,8
        out = c.evict_nodes([1])
        assert out.n_nodes == 3
        assert out.n_ranks == 40  # 16 + 16 + 8

    def test_eviction_rank_map(self):
        c = Cluster(n_ranks=64)
        m = c.eviction_rank_map([1])
        assert m.shape == (64,)
        assert (m[:16] == np.arange(16)).all()          # node 0 unchanged
        assert (m[16:32] == -1).all()                   # node 1 evicted
        assert (m[32:48] == np.arange(16, 32)).all()    # node 2 shifts down
        assert (m[48:] == np.arange(32, 48)).all()


# --------------------------------------------------------------------- #
# Guarded placement
# --------------------------------------------------------------------- #


class _Exploding(PlacementPolicy):
    name = "exploding"

    def compute(self, costs, n_ranks, ctx=None):
        raise RuntimeError("solver segfault")


class _Invalid(PlacementPolicy):
    name = "invalid"

    def compute(self, costs, n_ranks, ctx=None):
        return np.full(costs.shape[0], n_ranks + 7, dtype=np.int64)


class _Slow(PlacementPolicy):
    name = "slow"

    def compute(self, costs, n_ranks, ctx=None):
        import time

        time.sleep(0.02)
        return np.zeros(costs.shape[0], dtype=np.int64)


class TestGuardedPolicy:
    def test_healthy_chain_uses_first_tier(self):
        g = GuardedPolicy(["lpt", "baseline"], budget_s=10.0)
        costs = np.ones(64)
        r = g.place(costs, 8)
        assert g.last_tier == "lpt"
        assert g.fallback_count == 0
        assert r.assignment.shape == (64,)

    def test_exception_contained_and_retried(self):
        g = GuardedPolicy([_Exploding(), "baseline"], budget_s=10.0, retries=1)
        g.place(np.ones(32), 4)
        assert g.last_tier == "baseline"
        assert g.fallback_count == 1
        kinds = [e.kind for e in g.drain_events()]
        assert kinds.count("error") == 2  # first try + one retry
        assert g.simulated_backoff_s > 0  # charged, never slept

    def test_invalid_assignment_contained(self):
        g = GuardedPolicy([_Invalid(), "baseline"], budget_s=10.0, retries=0)
        g.place(np.ones(32), 4)
        assert g.last_tier == "baseline"
        assert [e.kind for e in g.drain_events()] == ["invalid"]

    def test_budget_breach_falls_through_and_demotes(self):
        g = GuardedPolicy(
            [_Slow(), "baseline"], budget_s=1e-4, demote_after=2
        )
        g.place(np.ones(16), 4)
        assert g.last_tier == "baseline"
        g.place(np.ones(16), 4)
        events = g.drain_events()
        assert [e.kind for e in events].count("budget") == 2
        assert any(e.kind == "demoted" for e in events)
        # sticky demotion: the slow tier is skipped from now on
        g.place(np.ones(16), 4)
        assert [e.kind for e in g.drain_events()] == []
        assert g.fallback_count == 2  # demoted start means no new fallback

    def test_last_tier_accepted_even_over_budget(self):
        g = GuardedPolicy([_Slow()], budget_s=1e-4)
        r = g.place(np.ones(16), 4)
        assert r.assignment.shape == (16,)
        assert g.last_tier == "slow"

    def test_all_tiers_failing_raises(self):
        g = GuardedPolicy([_Exploding()], budget_s=1.0, retries=0)
        with pytest.raises(RuntimeError, match="every tier"):
            g.compute(np.ones(8), 2)

    def test_registry_integration(self):
        g = get_policy("guarded")
        assert isinstance(g, GuardedPolicy)
        assert [t.name for t in g.chain] == ["cdp-chunked", "lpt", "baseline"]

    def test_validation(self):
        with pytest.raises(ValueError):
            GuardedPolicy([])
        with pytest.raises(ValueError):
            GuardedPolicy(["lpt"], budget_s=0)
        with pytest.raises(ValueError):
            GuardedPolicy(["lpt"], retries=-1)


# --------------------------------------------------------------------- #
# Resilient driver behaviour
# --------------------------------------------------------------------- #


def _crashy_run(epochs, cluster, **res_kw):
    tl = FaultTimeline(events=(NodeCrash(step=90, node=1),))
    res = ResilienceConfig(checkpoint_interval_epochs=2, **res_kw)
    return run_resilient_trajectory(
        "lpt", epochs, cluster, DriverConfig(seed=3),
        resilience=res, timeline=tl,
    )


class TestResilientDriver:
    def test_healthy_run_has_no_mitigations(self, epochs128, cluster128):
        s = run_resilient_trajectory(
            "lpt", epochs128, cluster128, DriverConfig(seed=1)
        )
        assert s.n_restores == 0
        assert s.n_evictions == 0
        assert s.n_drain_enables == 0
        assert s.evicted_nodes == ()
        assert s.n_checkpoints > 0  # periodic checkpoints still taken
        assert s.n_ranks == 128
        assert s.total_steps == 200

    def test_crash_restores_and_completes_on_survivors(
        self, epochs128, cluster128
    ):
        s = _crashy_run(epochs128, cluster128)
        assert s.n_restores == 1
        assert s.n_evictions == 1
        assert s.evicted_nodes == (1,)
        assert s.n_ranks == 112  # 8 nodes -> 7
        assert s.total_steps == 200  # logical progress not double-counted

    def test_unmitigated_crash_restarts_from_scratch(
        self, epochs128, cluster128
    ):
        tl = FaultTimeline(events=(NodeCrash(step=90, node=1),))
        s = run_resilient_trajectory(
            "lpt", epochs128, cluster128, DriverConfig(seed=3),
            resilience=UNMITIGATED, timeline=tl,
        )
        assert s.n_checkpoints == 0
        assert s.n_restores == 1
        assert s.total_steps == 200
        restored = _crashy_run(epochs128, cluster128)
        assert s.wall_s > restored.wall_s  # redoing 4 epochs beats redoing all

    def test_throttle_onset_detected_and_evicted(self, epochs128, cluster128):
        tl = FaultTimeline(
            events=(ThrottleOnset(step=60, nodes=(2,), factor=8.0),)
        )
        monitor = HealthMonitor()
        s = run_resilient_trajectory(
            "lpt", epochs128, cluster128, DriverConfig(seed=3),
            timeline=tl, monitor=monitor,
        )
        assert s.n_evictions == 1
        assert s.evicted_nodes == (2,)
        assert monitor.n_alerts >= 1
        assert 2 in monitor.flagged_nodes()
        # unmonitored arm keeps dragging the hot node along
        s_un = run_resilient_trajectory(
            "lpt", epochs128, cluster128, DriverConfig(seed=3),
            resilience=UNMITIGATED, timeline=tl,
        )
        assert s_un.n_evictions == 0
        assert s_un.wall_s > s.wall_s

    def test_fabric_degradation_enables_drain_queue(self, epochs128, cluster128):
        tuning = dataclasses.replace(TUNED, drain_queue=False)
        tl = FaultTimeline(
            events=(
                FabricDegradation(
                    step=40, end_step=200, ack_loss_prob=4e-4, ack_recovery_s=0.5
                ),
            )
        )
        monitor = HealthMonitor()
        s = run_resilient_trajectory(
            "lpt", epochs128, cluster128,
            DriverConfig(seed=3, tuning=tuning),
            timeline=tl, monitor=monitor,
        )
        assert s.n_drain_enables == 1
        assert s.n_evictions == 0  # fabric fault, not a node fault
        # after the drain queue is on, later windows stop spiking
        assert monitor.assessments[-1][1].spikes.n_spikes == 0

    def test_max_restores_enforced(self, epochs128, cluster128):
        tl = FaultTimeline(events=(NodeCrash(step=90, node=1),))
        with pytest.raises(RuntimeError, match="max_restores"):
            run_resilient_trajectory(
                "lpt", epochs128, cluster128, DriverConfig(seed=3),
                resilience=ResilienceConfig(max_restores=0), timeline=tl,
            )

    def test_mitigation_log_recorded_in_telemetry(self, epochs128, cluster128):
        from repro.resilience import MITIGATION_KINDS

        s = _crashy_run(epochs128, cluster128)
        t = s.collector.mitigations_table()
        kinds = set(int(k) for k in t["kind"])
        assert MITIGATION_KINDS["checkpoint"] in kinds
        assert MITIGATION_KINDS["restore"] in kinds
        assert MITIGATION_KINDS["evict"] in kinds
        assert float(t["cost_s"].sum()) == pytest.approx(s.mitigation_s)

    def test_guarded_policy_in_resilient_driver(self, epochs128, cluster128):
        g = GuardedPolicy([_Exploding(), "lpt"], budget_s=10.0, retries=0)
        s = run_resilient_trajectory(
            g, epochs128, cluster128, DriverConfig(seed=3)
        )
        assert s.n_policy_fallbacks == len(epochs128)
        assert s.total_steps == 200

    def test_resilience_config_validation(self):
        with pytest.raises(ValueError):
            ResilienceConfig(checkpoint_interval_epochs=0)
        with pytest.raises(ValueError):
            ResilienceConfig(restore_s=-1.0)
        with pytest.raises(ValueError):
            ResilienceConfig(max_restores=-1)

    def test_passive_monitor_hook_in_plain_driver(self, cluster128):
        epochs = small_workload(128, 100)
        monitor = HealthMonitor()
        run_trajectory(
            get_policy("lpt"), epochs, cluster128, DriverConfig(seed=0),
            health_monitor=monitor,
        )
        assert len(monitor.assessments) > 0
        assert monitor.n_alerts == 0


# --------------------------------------------------------------------- #
# Healthy runs stay quiet (anomaly false-positive guard)
# --------------------------------------------------------------------- #


class TestHealthyRunsNoFalsePositives:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_detectors_silent_on_healthy_run(self, seed, epochs128, cluster128):
        s = run_trajectory(
            get_policy("lpt"), epochs128, cluster128, DriverConfig(seed=seed)
        )
        t = s.collector.steps_table()
        throttle = detect_throttled_nodes(t, cluster128.ranks_per_node)
        assert throttle.throttled_nodes == []
        spikes = detect_wait_spikes(t, "comm_s", k_mad=12.0, min_spike_s=5e-3)
        assert spikes.n_spikes == 0

    @pytest.mark.parametrize("seed", [0, 7, 21])
    def test_online_monitor_silent_on_healthy_run(
        self, seed, epochs128, cluster128
    ):
        monitor = HealthMonitor()
        s = run_resilient_trajectory(
            "lpt", epochs128, cluster128, DriverConfig(seed=seed),
            monitor=monitor,
        )
        assert monitor.n_alerts == 0
        assert s.n_evictions == 0 and s.n_drain_enables == 0


# --------------------------------------------------------------------- #
# Mitigation engine unit behaviour
# --------------------------------------------------------------------- #


class TestMitigationEngine:
    def _assessment(self, throttled, n_spikes=0, implicate=False):
        from repro.telemetry.anomaly import (
            AnomalyAssessment,
            SpikeReport,
            ThrottleReport,
        )

        return AnomalyAssessment(
            throttle=ThrottleReport(throttled, np.ones(8), 1.0),
            spikes=SpikeReport(
                n_spikes, np.arange(n_spikes, dtype=np.int64), 0.01, 0.001
            ),
            spikes_implicate_ack=implicate,
            n_rows=512,
        )

    def test_never_evicts_last_node(self):
        from repro.simnet.machine import DEFAULT_FABRIC

        eng = MitigationEngine()
        acts = eng.plan(
            self._assessment([0]), step=10, epoch=1, drain_enabled=True,
            n_nodes_alive=1, blocks_per_node={0: 10}, fabric=DEFAULT_FABRIC,
        )
        assert acts == []

    def test_global_slowdown_not_treated_as_node_fault(self):
        from repro.simnet.machine import DEFAULT_FABRIC

        eng = MitigationEngine()
        acts = eng.plan(
            self._assessment([0, 1, 2, 3]), step=10, epoch=1,
            drain_enabled=True, n_nodes_alive=4,
            blocks_per_node={}, fabric=DEFAULT_FABRIC,
        )
        assert acts == []

    def test_drain_requires_repeated_ack_spikes(self):
        from repro.simnet.machine import DEFAULT_FABRIC

        eng = MitigationEngine(min_spikes_for_drain=2)
        one = eng.plan(
            self._assessment([], n_spikes=1, implicate=True), step=1, epoch=0,
            drain_enabled=False, n_nodes_alive=4, blocks_per_node={},
            fabric=DEFAULT_FABRIC,
        )
        assert one == []
        local_only = eng.plan(
            self._assessment([], n_spikes=9, implicate=False), step=2, epoch=0,
            drain_enabled=False, n_nodes_alive=4, blocks_per_node={},
            fabric=DEFAULT_FABRIC,
        )
        assert local_only == []
        acks = eng.plan(
            self._assessment([], n_spikes=9, implicate=True), step=3, epoch=0,
            drain_enabled=False, n_nodes_alive=4, blocks_per_node={},
            fabric=DEFAULT_FABRIC,
        )
        assert [a.kind for a in acks] == ["drain_queue"]

    def test_eviction_cost_scales_with_lost_blocks(self):
        from repro.simnet.machine import DEFAULT_FABRIC

        eng = MitigationEngine()
        assert eng.eviction_cost_s(1000, DEFAULT_FABRIC) > eng.eviction_cost_s(
            0, DEFAULT_FABRIC
        )


# --------------------------------------------------------------------- #
# End-to-end acceptance scenario
# --------------------------------------------------------------------- #


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def result(self):
        return run_resilience_experiment(ResilienceExperimentConfig())

    def test_resilient_run_completes(self, result):
        assert result.resilient.total_steps == 400
        assert result.resilient.n_restores == 1
        assert result.resilient.n_evictions == 2  # crash + thermal eviction
        assert sorted(result.resilient.evicted_nodes) == [3, 5]

    def test_recovers_at_least_80_percent(self, result):
        assert result.healthy.wall_s < result.resilient.wall_s
        assert result.resilient.wall_s < result.unmitigated.wall_s
        assert result.recovery_fraction >= 0.80

    def test_bit_identical_across_same_seed_runs(self, result):
        assert result.deterministic is True

    def test_report_renders(self, result):
        text = result.report()
        assert "recovery fraction" in text
        assert "bit-identical" in text
