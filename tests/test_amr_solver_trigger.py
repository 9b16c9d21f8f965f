"""Tests for the redistribution trigger."""

import numpy as np
import pytest

from repro.amr import ImbalanceTrigger


class TestImbalanceTrigger:
    def test_fires_on_heavy_imbalance(self):
        trig = ImbalanceTrigger(horizon_steps=25, redistribution_cost_s=0.1)
        costs = np.array([10.0, 1.0, 1.0, 1.0])
        assignment = np.array([0, 0, 1, 1])  # rank 0 overloaded
        d = trig.evaluate(costs, assignment, 2)
        assert d.rebalance
        assert d.expected_benefit_s > d.estimated_cost_s
        assert "REBALANCE" in str(d)

    def test_holds_when_balanced(self):
        trig = ImbalanceTrigger()
        costs = np.ones(8)
        assignment = np.repeat(np.arange(4), 2)
        d = trig.evaluate(costs, assignment, 4)
        assert not d.rebalance
        assert d.imbalance_loss_s == pytest.approx(0.0)

    def test_hysteresis_damps_borderline(self):
        costs = np.array([1.2, 1.0, 1.0, 1.0])
        assignment = np.array([0, 1, 2, 3])
        eager = ImbalanceTrigger(hysteresis=1.0, redistribution_cost_s=0.004,
                                 horizon_steps=1)
        damped = ImbalanceTrigger(hysteresis=10.0, redistribution_cost_s=0.004,
                                  horizon_steps=1)
        assert eager.evaluate(costs, assignment, 4).rebalance
        assert not damped.evaluate(costs, assignment, 4).rebalance

    def test_longer_horizon_favors_rebalance(self):
        costs = np.array([2.0, 1.0, 1.0, 1.0])
        assignment = np.array([0, 0, 1, 1])
        short = ImbalanceTrigger(horizon_steps=1, redistribution_cost_s=0.5)
        long = ImbalanceTrigger(horizon_steps=100, redistribution_cost_s=0.5)
        assert not short.evaluate(costs, assignment, 2).rebalance
        assert long.evaluate(costs, assignment, 2).rebalance

    def test_validation(self):
        with pytest.raises(ValueError):
            ImbalanceTrigger(step_seconds_per_cost=0)
        with pytest.raises(ValueError):
            ImbalanceTrigger(horizon_steps=0)
        with pytest.raises(ValueError):
            ImbalanceTrigger(hysteresis=0.5)
