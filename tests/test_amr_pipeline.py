"""Integration tests for the Simulation pipeline (solver x placement)."""

import pytest

from repro.amr import (
    EulerSolver2D,
    ImbalanceTrigger,
    Simulation,
    blast_initial_state,
)
from repro.core import get_policy
from repro.mesh import AmrMesh, RootGrid


def make_sim(policy="cplx:50", n_ranks=8, trigger=None, adapt_interval=5):
    mesh = AmrMesh(RootGrid((4, 4)), block_cells=8, max_level=1,
                   domain_size=(1.0, 1.0))
    solver = EulerSolver2D(mesh, cfl=0.4, stiffness_work=40)
    solver.initialize(blast_initial_state((0.5, 0.5), 0.1))
    return Simulation(solver, get_policy(policy), n_ranks=n_ranks,
                      adapt_interval=adapt_interval, trigger=trigger,
                      ranks_per_node=4)


class TestSimulation:
    def test_run_produces_result_and_telemetry(self):
        sim = make_sim()
        res = sim.run(20)
        assert res.n_steps == 20
        assert res.final_time > 0
        assert res.redistributions >= 1  # startup at minimum
        t = res.collector.steps_table()
        assert t.n_rows == 20 * 8
        assert t["compute_s"].sum() > 0
        assert "steps" in res.summary()

    def test_assignment_tracks_mesh(self):
        sim = make_sim()
        sim.run(15)
        assert sim.assignment is not None
        assert sim.assignment.shape == (sim.mesh.n_blocks,)
        assert sim.assignment.max() < 8

    def test_refinement_triggers_redistribution(self):
        sim = make_sim(adapt_interval=3)
        res = sim.run(15)
        # The blast refines within the run -> beyond the startup placement.
        assert res.n_blocks > 16
        assert res.redistributions >= 2
        assert res.migrated_blocks >= 0

    def test_trigger_can_skip_drift_epochs(self):
        # Extremely reluctant trigger: never worth rebalancing on drift.
        reluctant = ImbalanceTrigger(
            step_seconds_per_cost=1e-9, redistribution_cost_s=1e9
        )
        sim = make_sim(trigger=reluctant, adapt_interval=2)
        res = sim.run(20)
        assert res.trigger_skips > 0

    def test_measured_costs_drive_placement(self):
        """CPLX with measured costs balances better than count-based
        baseline on the same physics.

        Compared on placement *quality against the learned costs* (the
        deterministic consequence of feeding telemetry to the policy),
        not on raw wall-clock sync fractions, which jitter with machine
        load during the test run.
        """
        from repro.core import load_stats

        sim = make_sim(policy="cplx:100")
        sim.run(25)
        # The pipeline's learned per-block costs (EWMA of real kernel
        # measurements, CV ~ 1 near the shock):
        costs = sim.tracker.estimates(sim.mesh.keys)
        assert costs.std() / costs.mean() > 0.2  # real variability learned

        def makespan(policy):
            a = get_policy(policy).place(costs, sim.n_ranks).assignment
            return load_stats(costs, a, sim.n_ranks).makespan

        # On those learned costs, the telemetry-driven policy strictly
        # beats the count-based split (deterministic given the costs).
        assert makespan("cplx:100") < makespan("baseline")

    def test_validation(self):
        with pytest.raises(ValueError):
            make_sim(n_ranks=0)
        sim = make_sim()
        with pytest.raises(ValueError):
            sim.run(0)

    def test_continuation_runs(self):
        sim = make_sim()
        sim.run(10)
        r2 = sim.run(10)
        assert r2.n_steps == 20
        assert r2.collector.steps_table().n_rows == 20 * 8
