"""Unreliable-fabric transport layer tests.

Covers both layers of the transport stack:

* the packet-level retransmit protocol in :class:`repro.simnet.SimMPI`
  (sequence numbers, ACK/timeout, duplicate suppression, resequencing),
  including the property that per-channel delivery order is preserved
  under arbitrary loss/duplication/reorder rates;
* the BSP-level :class:`repro.engine.TransportHook` that drives
  two-phase redistribution (prepare → commit/abort) with rollback to
  the last-good placement and degraded stale-placement epochs.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr.driver import DriverConfig, run_trajectory
from repro.amr.redistribution import (
    abort_redistribution,
    commit_redistribution,
    prepare_redistribution,
    stale_assignment,
)
from repro.core.policy import get_policy
from repro.engine import STALE_PLACEMENT_KIND, TRANSPORT_ROLLBACK_KIND
from repro.resilience.experiment import small_workload
from repro.resilience.mitigation import MITIGATION_KINDS, kind_name
from repro.simnet import Cluster, Engine, FabricSpec, SimMPI
from repro.simnet.faults import (
    NO_TRANSPORT_FAULTS,
    TransportExhaustedError,
    TransportFaultModel,
    parse_transport_spec,
)
from repro.simnet.machine import DEFAULT_FABRIC

FAST = FabricSpec(
    local_latency_s=1e-9, remote_latency_s=1e-3,
    local_bandwidth=1e15, remote_bandwidth=1e15,
    local_service_s=1e-9, remote_service_s=1e-9,
    collective_base_s=1e-9, collective_per_level_s=1e-9,
)


def run_stream(transport, n_messages, *, seed=0, tag=5):
    """Send ``n_messages`` rank 0 → rank 16 (remote) over the protocol."""
    eng = Engine()
    mpi = SimMPI(
        eng, Cluster(n_ranks=32), fabric=FAST, transport=transport, seed=seed
    )

    def sender():
        reqs = [mpi.isend(0, 16, tag=tag) for _ in range(n_messages)]
        yield from mpi.waitall(0, reqs)

    def receiver():
        reqs = [mpi.irecv(16, 0, tag=tag) for _ in range(n_messages)]
        yield from mpi.waitall(16, reqs)

    eng.spawn(sender())
    eng.spawn(receiver())
    eng.run()
    return mpi


class TestReliableProtocol:
    @settings(max_examples=60, deadline=None)
    @given(
        loss=st.floats(0.0, 0.3),
        dup=st.floats(0.0, 0.3),
        reorder=st.floats(0.0, 0.4),
        n=st.integers(1, 12),
        seed=st.integers(0, 2**16),
    )
    def test_order_preserved_under_loss_dup_reorder(
        self, loss, dup, reorder, n, seed
    ):
        """The property the resequencing buffer exists for: whatever the
        fabric does to individual copies, the application sees each
        channel's messages exactly once, in send order."""
        t = TransportFaultModel(
            loss_prob=loss, duplicate_prob=dup, reorder_prob=reorder,
            max_retries=40, seed=3,
        )
        if not t.is_active:
            return  # inactive model bypasses the protocol entirely
        mpi = run_stream(t, n, seed=seed)
        stats = mpi.transport_stats
        assert stats.delivered_order[(0, 16, 5)] == list(range(n))
        assert stats.delivered == stats.messages == n
        assert stats.exhausted == 0

    def test_lossless_active_fabric_is_one_attempt_per_message(self):
        t = TransportFaultModel(reorder_prob=1e-12, seed=1)
        mpi = run_stream(t, 4)
        s = mpi.transport_stats
        assert s.messages == 4 and s.attempts == 4
        assert s.retransmits == s.drops == s.dup_suppressed == 0

    def test_inactive_model_bypasses_protocol(self):
        mpi = run_stream(NO_TRANSPORT_FAULTS, 3)
        assert mpi.transport_stats.messages == 0
        assert mpi.transport_stats.delivered_order == {}

    def test_total_loss_exhausts_retry_budget(self):
        t = TransportFaultModel(loss_prob=1.0, max_retries=2, seed=1)
        with pytest.raises(TransportExhaustedError, match="2 retransmissions"):
            run_stream(t, 1)

    def test_exhaustion_counts_attempts(self):
        t = TransportFaultModel(loss_prob=1.0, max_retries=2, seed=1)
        eng = Engine()
        mpi = SimMPI(eng, Cluster(n_ranks=32), fabric=FAST, transport=t)
        mpi.isend(0, 16, tag=1)
        with pytest.raises(TransportExhaustedError):
            eng.run()
        s = mpi.transport_stats
        assert s.attempts == 3            # max_retries + 1
        assert s.retransmits == 2
        assert s.exhausted == 1

    def test_fabric_duplicates_are_suppressed(self):
        t = TransportFaultModel(duplicate_prob=1.0, seed=1)
        mpi = run_stream(t, 3)
        s = mpi.transport_stats
        assert s.duplicates == 3
        assert s.dup_suppressed == 3      # every extra copy discarded
        assert s.delivered == 3
        assert s.delivered_order[(0, 16, 5)] == [0, 1, 2]

    def test_local_sends_skip_protocol(self):
        # Ranks 0 and 1 share a node: reliable path is remote-only.
        t = TransportFaultModel(loss_prob=0.5, seed=1)
        eng = Engine()
        mpi = SimMPI(eng, Cluster(n_ranks=32), fabric=FAST, transport=t)

        def sender():
            req = mpi.isend(0, 1, tag=2)
            yield from mpi.wait(0, req)

        def receiver():
            yield from mpi.wait(1, mpi.irecv(1, 0, tag=2))

        eng.spawn(sender())
        eng.spawn(receiver())
        eng.run()
        assert mpi.transport_stats.messages == 0

    def test_same_seed_runs_are_bit_identical(self):
        t = TransportFaultModel(
            loss_prob=0.2, duplicate_prob=0.1, reorder_prob=0.2,
            max_retries=20, seed=9,
        )
        a = run_stream(t, 8, seed=4)
        b = run_stream(t, 8, seed=4)
        assert a.transport_stats == b.transport_stats
        assert a.message_log == b.message_log
        assert a.engine.now == b.engine.now


class TestTransportFaultModel:
    def test_validation(self):
        with pytest.raises(ValueError, match="loss_prob"):
            TransportFaultModel(loss_prob=1.5)
        with pytest.raises(ValueError, match="backoff_factor"):
            TransportFaultModel(backoff_factor=0.5)
        with pytest.raises(ValueError, match="max_retries"):
            TransportFaultModel(max_retries=-1)
        with pytest.raises(ValueError, match="seed"):
            TransportFaultModel(seed=-3)

    def test_is_active(self):
        assert not NO_TRANSPORT_FAULTS.is_active
        assert TransportFaultModel(loss_prob=0.01).is_active
        assert TransportFaultModel(duplicate_prob=0.01).is_active
        assert TransportFaultModel(reorder_prob=0.01).is_active

    def test_bad_link_multiplies_loss(self):
        t = TransportFaultModel(
            loss_prob=0.02, bad_links=((3, 1),), bad_link_factor=10.0
        )
        assert t.link_loss_prob(0, 1) == pytest.approx(0.02)
        # Pair is normalized, so both orders hit the bad link.
        assert t.link_loss_prob(1, 3) == pytest.approx(0.2)
        assert t.link_loss_prob(3, 1) == pytest.approx(0.2)

    def test_bad_link_loss_is_capped(self):
        t = TransportFaultModel(
            loss_prob=0.5, bad_links=((0, 1),), bad_link_factor=100.0
        )
        assert t.link_loss_prob(0, 1) == pytest.approx(0.99)

    def test_attempt_failure_prob_counts_both_directions(self):
        t = TransportFaultModel(loss_prob=0.1)
        assert t.attempt_failure_prob(0, 1) == pytest.approx(1 - 0.9 * 0.9)

    def test_retry_stall_geometric_series(self):
        t = TransportFaultModel(ack_timeout_s=1e-3, backoff_factor=2.0)
        # 1ms + 2ms + 4ms
        assert t.retry_stall_s(3) == pytest.approx(7e-3)
        flat = TransportFaultModel(ack_timeout_s=1e-3, backoff_factor=1.0)
        assert flat.retry_stall_s(3) == pytest.approx(3e-3)

    def test_sample_migration_deterministic(self):
        t = TransportFaultModel(loss_prob=0.2, duplicate_prob=0.05, seed=2)
        src = np.arange(50) % 4
        dst = (np.arange(50) + 1) % 4
        a = t.sample_migration(src, dst, np.random.default_rng(7))
        b = t.sample_migration(src, dst, np.random.default_rng(7))
        assert a == b
        assert a.attempted == 50

    def test_sample_migration_reliable_is_noop(self):
        s = NO_TRANSPORT_FAULTS.sample_migration(
            np.zeros(10, dtype=np.int64), np.ones(10, dtype=np.int64),
            np.random.default_rng(0),
        )
        assert s.retransmits == s.drops == s.failed == 0
        assert s.stall_s == 0.0 and not s.exhausted

    def test_sample_migration_exhaustion_under_heavy_loss(self):
        t = TransportFaultModel(loss_prob=0.95, max_retries=1, seed=2)
        s = t.sample_migration(
            np.zeros(64, dtype=np.int64), np.ones(64, dtype=np.int64),
            np.random.default_rng(3),
        )
        assert s.failed > 0 and s.exhausted
        assert s.stall_s > 0.0

    def test_parse_spec_roundtrip(self):
        t = parse_transport_spec(
            "loss=0.05, dup=0.01,reorder=0.02,retries=4,seed=11,"
            "timeout=1e-3,backoff=3,bad_link_factor=5"
        )
        assert t == TransportFaultModel(
            loss_prob=0.05, duplicate_prob=0.01, reorder_prob=0.02,
            max_retries=4, seed=11, ack_timeout_s=1e-3, backoff_factor=3.0,
            bad_link_factor=5.0,
        )

    def test_parse_spec_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="unknown transport spec key"):
            parse_transport_spec("loss=0.1,bogus=2")

    def test_parse_spec_rejects_bad_value(self):
        with pytest.raises(ValueError, match="bad value"):
            parse_transport_spec("retries=many")

    def test_parse_spec_rejects_bare_token(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_transport_spec("loss")


class TestTwoPhaseRedistribution:
    def _plan(self, prev, n_ranks=4, n_blocks=16, seed=0):
        rng = np.random.default_rng(seed)
        costs = rng.exponential(1.0, n_blocks)
        return prepare_redistribution(
            get_policy("lpt"), costs, n_ranks, prev, DEFAULT_FABRIC
        )

    def test_prepare_then_commit_matches_one_shot(self):
        prev = np.arange(16, dtype=np.int64) % 4
        plan = self._plan(prev)
        out = commit_redistribution(plan)
        assert out.migrated_blocks == plan.migrated_blocks > 0
        assert out.migration_s == plan.migration_s
        assert len(plan.src_ranks) == plan.migrated_blocks
        # Every planned transfer actually changes owner.
        assert np.all(plan.src_ranks != plan.dst_ranks)

    def test_prepare_moves_nothing_at_startup(self):
        plan = self._plan(None)
        assert plan.carried is None and plan.migrated_blocks == 0
        # Aborting at startup degenerates to commit (nothing to roll back).
        out = abort_redistribution(plan, 4)
        assert np.array_equal(out.result.assignment, plan.result.assignment)
        assert not out.result.policy.endswith("+stale")

    def test_abort_rolls_back_to_carried_placement(self):
        prev = np.arange(16, dtype=np.int64) % 4
        plan = self._plan(prev)
        out = abort_redistribution(plan, 4, stall_s=0.25)
        assert np.array_equal(out.result.assignment, prev)
        assert out.result.policy.endswith("+stale")
        assert out.migrated_blocks == 0
        assert out.migration_s == pytest.approx(0.25)  # wasted retries charged
        assert out.placement_s == plan.placement_s

    def test_stale_assignment_round_robins_holes(self):
        carried = np.array([2, -1, 0, -1, 1], dtype=np.int64)
        stale = stale_assignment(carried, 3)
        assert stale.tolist() == [2, 1, 0, 0, 1]
        assert (stale >= 0).all()
        # Input untouched (rollback must not mutate the plan).
        assert carried[1] == -1


LOSSY = TransportFaultModel(loss_prob=0.6, max_retries=1, seed=5)


class _DetPolicy:
    """Pins the measured placement time (real ``elapsed_s`` is
    wall-clock, which would break bit-identity assertions)."""

    def __init__(self):
        self._inner = get_policy("lpt")
        self.name = self._inner.name

    def place(self, costs, n_ranks, ctx=None):
        return dataclasses.replace(
            self._inner.place(costs, n_ranks, ctx=ctx), elapsed_s=0.001
        )


class TestTransportHook:
    def _run(self, transport, seed=1):
        return run_trajectory(
            _DetPolicy(), small_workload(16, 60), Cluster(n_ranks=16),
            DriverConfig(seed=seed, transport=transport),
        )

    def test_lossy_run_rolls_back_and_degrades(self):
        s = self._run(LOSSY)
        assert s.n_retransmits > 0
        assert s.n_transport_drops > 0
        assert s.n_rollbacks > 0
        assert s.n_degraded_epochs > 0
        assert s.transport_stall_s > 0.0

    def test_rollbacks_recorded_in_transport_table(self):
        s = self._run(LOSSY)
        t = s.collector.transport_table()
        assert t.n_rows > 0
        assert int(t["rollback"].sum()) == s.n_rollbacks
        assert int(t["degraded"].sum()) == s.n_degraded_epochs
        assert int(t["retransmits"].sum()) == s.n_retransmits

    def test_rollbacks_surface_as_mitigations(self):
        s = self._run(LOSSY)
        m = s.collector.mitigations_table()
        kinds = set(int(k) for k in m["kind"])
        assert TRANSPORT_ROLLBACK_KIND in kinds
        assert STALE_PLACEMENT_KIND in kinds

    def test_same_seed_runs_identical(self):
        a, b = self._run(LOSSY), self._run(LOSSY)
        assert a.wall_s == b.wall_s
        assert a.n_retransmits == b.n_retransmits
        assert a.n_rollbacks == b.n_rollbacks
        assert a.n_degraded_epochs == b.n_degraded_epochs
        assert a.transport_stall_s == b.transport_stall_s

    def test_reliable_fabric_leaves_run_untouched(self):
        clean = self._run(NO_TRANSPORT_FAULTS)
        assert clean.n_retransmits == clean.n_rollbacks == 0
        assert clean.n_degraded_epochs == 0
        assert clean.transport_stall_s == 0.0
        assert clean.collector.transport_table().n_rows == 0

    def test_mild_faults_commit_with_stall_but_no_rollback(self):
        mild = TransportFaultModel(loss_prob=0.02, max_retries=8, seed=5)
        s = self._run(mild)
        assert s.n_rollbacks == 0 and s.n_degraded_epochs == 0
        assert s.n_retransmits > 0
        assert s.transport_stall_s > 0.0

    def test_kind_codes_match_resilience_registry(self):
        # The engine layer can't import resilience, so the codes are
        # mirrored literals — this is the test that keeps them in sync.
        assert MITIGATION_KINDS["transport_rollback"] == TRANSPORT_ROLLBACK_KIND
        assert MITIGATION_KINDS["stale_placement"] == STALE_PLACEMENT_KIND
        assert kind_name(TRANSPORT_ROLLBACK_KIND) == "transport_rollback"
        assert kind_name(STALE_PLACEMENT_KIND) == "stale_placement"

    def test_summary_counters_have_clean_defaults(self):
        # New RunSummary fields must default to 0 so pre-transport
        # goldens keep deserializing/comparing unchanged.
        from repro.engine.types import RunSummary

        fields = {f.name: f for f in dataclasses.fields(RunSummary)}
        for name in (
            "n_retransmits", "n_transport_drops", "n_dup_suppressed",
            "n_transport_reorders", "n_rollbacks", "n_degraded_epochs",
        ):
            assert fields[name].default == 0
        assert fields["transport_stall_s"].default == 0.0
