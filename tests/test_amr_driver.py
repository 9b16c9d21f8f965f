"""Tests for the BSP simulation driver."""


import pytest

from repro.amr import DriverConfig, SedovWorkload, run_trajectory, scaled_config
from repro.core import get_policy
from repro.simnet import Cluster


@pytest.fixture(scope="module")
def trajectory():
    return SedovWorkload(scaled_config(512, scale=8, steps=400)).full_trajectory()


@pytest.fixture(scope="module")
def cluster():
    return Cluster(n_ranks=512)


class TestRunSummary:
    def test_summary_fields(self, trajectory, cluster):
        s = run_trajectory(get_policy("baseline"), trajectory, cluster)
        assert s.policy == "baseline"
        assert s.total_steps == 400
        assert s.n_epochs == len(trajectory)
        assert s.lb_invocations == len(trajectory) - 1
        assert s.wall_s > 0
        assert s.final_blocks == len(trajectory[-1].keys)
        fr = s.phase_fractions()
        assert sum(fr.values()) == pytest.approx(1.0)
        assert "wall" in s.row()

    def test_telemetry_attached(self, trajectory, cluster):
        s = run_trajectory(get_policy("baseline"), trajectory, cluster)
        t = s.collector.steps_table()
        assert t.n_rows > 0
        # Weighted steps cover the run.
        per_rank_weight = t["weight"].sum() / cluster.n_ranks
        assert per_rank_weight == pytest.approx(400, rel=1e-6)
        e = s.collector.epochs_table()
        assert e.n_rows == len(trajectory)
        assert e["n_steps"].sum() == 400

    def test_deterministic_given_seed(self, trajectory, cluster):
        a = run_trajectory(get_policy("baseline"), trajectory, cluster)
        b = run_trajectory(get_policy("baseline"), trajectory, cluster)
        # The simulated phases are seed-deterministic; the only run-to-run
        # variation is the *measured* placement wall-clock folded into the
        # lb charge (milliseconds against thousands of simulated seconds).
        assert a.wall_s == pytest.approx(b.wall_s, rel=1e-3)
        assert a.phase_rank_seconds["compute"] == pytest.approx(
            b.phase_rank_seconds["compute"]
        )
        assert a.phase_rank_seconds["sync"] == pytest.approx(
            b.phase_rank_seconds["sync"], rel=1e-9
        )

    def test_message_stats_present(self, trajectory, cluster):
        s = run_trajectory(get_policy("baseline"), trajectory, cluster)
        assert s.msg_remote > 0
        assert 0 < s.remote_fraction < 1

    def test_lb_phase_charged(self, trajectory, cluster):
        cfg = DriverConfig(redistribution_overhead_s=0.5)
        s = run_trajectory(get_policy("baseline"), trajectory, cluster, cfg)
        assert s.phase_rank_seconds["lb"] >= 0.5 * (len(trajectory) - 1) * 0.9


class TestCostFeeding:
    def test_measured_costs_beat_unit_costs(self, trajectory, cluster):
        """The paper's change #1: telemetry-fed costs enable balancing."""
        lpt = get_policy("lpt")
        informed = run_trajectory(
            lpt, trajectory, cluster, DriverConfig(use_measured_costs=True)
        )
        blind = run_trajectory(
            lpt, trajectory, cluster, DriverConfig(use_measured_costs=False)
        )
        assert informed.wall_s < blind.wall_s

    def test_measurement_noise_applied(self, trajectory, cluster):
        noisy = DriverConfig(cost_measurement_sigma=0.5, seed=1)
        clean = DriverConfig(cost_measurement_sigma=0.0, seed=1)
        a = run_trajectory(get_policy("lpt"), trajectory, cluster, noisy)
        b = run_trajectory(get_policy("lpt"), trajectory, cluster, clean)
        # Noisier measurements -> weakly worse balance -> >= runtime.
        assert a.wall_s >= b.wall_s * 0.98


class TestPolicyOrdering:
    def test_paper_shape_all_cplx_beat_baseline(self, trajectory, cluster):
        walls = {}
        for name in ("baseline", "cplx:0", "cplx:50", "cplx:100"):
            walls[name] = run_trajectory(
                get_policy(name), trajectory, cluster
            ).wall_s
        assert walls["cplx:0"] < walls["baseline"]
        assert walls["cplx:50"] < walls["cplx:0"]
        assert walls["cplx:100"] < walls["baseline"]

    def test_comm_increases_sync_decreases_with_x(self, trajectory, cluster):
        phases = {}
        for name in ("cplx:0", "cplx:100"):
            s = run_trajectory(get_policy(name), trajectory, cluster)
            phases[name] = s.phase_rank_seconds
        assert phases["cplx:100"]["comm"] > phases["cplx:0"]["comm"]
        assert phases["cplx:100"]["sync"] < phases["cplx:0"]["sync"]
