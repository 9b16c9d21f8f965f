"""Golden parity: the engine-based drivers are bit-identical to the
pre-refactor loops.

``_golden_drivers.py`` holds verbatim frozen copies of the monolithic
``run_trajectory`` / ``run_resilient_trajectory`` as they stood before
the ``repro.engine`` refactor.  These tests run both implementations on
the same seed and assert bitwise-equal RunSummary fields and telemetry
tables (ColumnTable ``__eq__`` is exact array equality).

The single nondeterministic input of the plain driver is the *measured*
placement wall-clock (``time.perf_counter`` inside ``policy.place``),
which feeds the lb charge and the epoch table.  ``_DetPolicy`` pins
``elapsed_s`` so the comparison covers every bit that is reproducible
at all.  The resilient driver already charges a modeled placement time,
but still records the measured value in epoch telemetry — same fix.
"""

import dataclasses

import pytest

from tests._golden_drivers import (
    GoldenResilienceConfig,
    golden_run_resilient_trajectory,
    golden_run_trajectory,
)
from repro.amr.driver import DriverConfig, run_trajectory
from repro.core.policy import get_policy
from repro.resilience import (
    HealthMonitor,
    ResilienceConfig,
    UNMITIGATED,
    run_resilient_trajectory,
)
from repro.resilience.experiment import small_workload
from repro.simnet.cluster import Cluster
from repro.simnet.faults import (
    FabricDegradation,
    FaultModel,
    FaultTimeline,
    NodeCrash,
    ThrottleOnset,
)


class _DetPolicy:
    """A placement policy with pinned measured wall-clock."""

    def __init__(self, name="lpt", elapsed_s=0.0015):
        self._inner = get_policy(name)
        self._elapsed = elapsed_s
        self.name = self._inner.name

    def place(self, costs, n_ranks, ctx=None):
        result = self._inner.place(costs, n_ranks, ctx=ctx)
        return dataclasses.replace(result, elapsed_s=self._elapsed)


@pytest.fixture(scope="module")
def epochs():
    return small_workload(128, 200)


@pytest.fixture(scope="module")
def cluster():
    return Cluster(n_ranks=128)


@pytest.fixture(scope="module")
def timeline():
    """Exercises every dynamic event kind plus a crash+restore+replay."""
    return FaultTimeline(
        base=FaultModel(ack_loss_prob=0.001, ack_recovery_s=0.005),
        events=(
            ThrottleOnset(step=30, nodes=(2,), factor=2.0),
            FabricDegradation(
                step=60, end_step=90, ack_loss_prob=0.02, ack_recovery_s=0.05
            ),
            NodeCrash(step=110, node=1),
        ),
    )


def _to_golden(res: ResilienceConfig) -> GoldenResilienceConfig:
    return GoldenResilienceConfig(
        **{f.name: getattr(res, f.name) for f in dataclasses.fields(res)}
    )


def assert_bit_identical(a, b):
    """Every RunSummary field and every telemetry table, bit for bit.

    The ``pattern_cache_*`` counters are host-side cache bookkeeping
    added after the golden drivers were frozen (the golden loop has no
    cache, so it always reports 0); every *simulated* quantity is still
    compared bit for bit.
    """
    for f in dataclasses.fields(type(a)):
        if f.name == "collector" or f.name.startswith("pattern_cache_"):
            continue
        va, vb = getattr(a, f.name), getattr(b, f.name)
        assert va == vb, f"RunSummary.{f.name}: {va!r} != {vb!r}"
    assert a.collector.steps_table() == b.collector.steps_table()
    assert a.collector.epochs_table() == b.collector.epochs_table()
    assert a.collector.mitigations_table() == b.collector.mitigations_table()


class TestPlainDriverParity:
    def test_healthy_run_bit_identical(self, epochs, cluster):
        config = DriverConfig(seed=3)
        new = run_trajectory(_DetPolicy(), epochs, cluster, config)
        old = golden_run_trajectory(_DetPolicy(), epochs, cluster, config)
        assert_bit_identical(new, old)

    def test_baseline_arm_bit_identical(self, epochs, cluster):
        config = DriverConfig(seed=11, use_measured_costs=False)
        new = run_trajectory(_DetPolicy("baseline"), epochs, cluster, config)
        old = golden_run_trajectory(_DetPolicy("baseline"), epochs, cluster, config)
        assert_bit_identical(new, old)

    def test_static_faults_bit_identical(self, epochs, cluster):
        config = DriverConfig(
            seed=5, faults=FaultModel(throttled_node_fraction=0.25, seed=5)
        )
        new = run_trajectory(_DetPolicy(), epochs, cluster, config)
        old = golden_run_trajectory(_DetPolicy(), epochs, cluster, config)
        assert_bit_identical(new, old)

    def test_health_monitor_observes_identically(self, epochs, cluster):
        config = DriverConfig(seed=3)
        mon_new, mon_old = HealthMonitor(), HealthMonitor()
        new = run_trajectory(
            _DetPolicy(), epochs, cluster, config, health_monitor=mon_new
        )
        old = golden_run_trajectory(
            _DetPolicy(), epochs, cluster, config, health_monitor=mon_old
        )
        assert_bit_identical(new, old)
        assert len(mon_new.assessments) == len(mon_old.assessments)


class TestResilientDriverParity:
    def test_resilient_arm_with_crash_restore(self, epochs, cluster, timeline):
        config = DriverConfig(seed=3)
        res = ResilienceConfig(checkpoint_interval_epochs=2)
        new = run_resilient_trajectory(
            _DetPolicy(), epochs, cluster, config,
            resilience=res, timeline=timeline,
        )
        old = golden_run_resilient_trajectory(
            _DetPolicy(), epochs, cluster, config,
            resilience=_to_golden(res), timeline=timeline,
        )
        assert new.n_restores == 1 and new.n_checkpoints > 0
        assert new.n_evictions >= 1  # crash eviction (+ any monitor evictions)
        assert_bit_identical(new, old)

    def test_unmitigated_arm_with_crash_relaunch(self, epochs, cluster, timeline):
        config = DriverConfig(seed=3)
        new = run_resilient_trajectory(
            _DetPolicy(), epochs, cluster, config,
            resilience=UNMITIGATED, timeline=timeline,
        )
        old = golden_run_resilient_trajectory(
            _DetPolicy(), epochs, cluster, config,
            resilience=_to_golden(UNMITIGATED), timeline=timeline,
        )
        assert new.n_restores == 1 and new.n_checkpoints == 0
        assert_bit_identical(new, old)

    def test_healthy_resilient_arm(self, epochs, cluster):
        config = DriverConfig(seed=9)
        res = ResilienceConfig()
        new = run_resilient_trajectory(
            _DetPolicy(), epochs, cluster, config, resilience=res
        )
        old = golden_run_resilient_trajectory(
            _DetPolicy(), epochs, cluster, config, resilience=_to_golden(res)
        )
        assert new.n_restores == 0
        assert_bit_identical(new, old)

    def test_monitored_without_checkpointing(self, epochs, cluster, timeline):
        config = DriverConfig(seed=3)
        res = ResilienceConfig(checkpointing=False)
        new = run_resilient_trajectory(
            _DetPolicy(), epochs, cluster, config,
            resilience=res, timeline=timeline,
        )
        old = golden_run_resilient_trajectory(
            _DetPolicy(), epochs, cluster, config,
            resilience=_to_golden(res), timeline=timeline,
        )
        assert new.n_checkpoints == 0 and new.n_restores == 1
        assert_bit_identical(new, old)
