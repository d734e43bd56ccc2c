"""Tests for the Monte-Carlo simulator and its agreement with the analytic engine."""

import numpy as np
import pytest

from repro.measures import (
    accumulated_cost,
    steady_state_availability,
    survivability,
    unreliability,
)
from repro.sim import (
    ArcadeSimulator,
    estimate_accumulated_cost,
    estimate_availability,
    estimate_survivability,
    estimate_unreliability,
)
from repro.sim.estimators import ConfidenceInterval, _interval
from repro.arcade.repair import RepairStrategy
from repro.casestudy.experiments import line_state_space
from repro.casestudy.facility import LINE2, StrategyConfiguration
from helpers import make_mini_model


class TestSimulatorMechanics:
    def test_trajectory_is_time_ordered(self):
        simulator = ArcadeSimulator(make_mini_model(), seed=42)
        run = simulator.simulate(500.0)
        assert run.times[0] == 0.0
        assert all(b > a for a, b in zip(run.times, run.times[1:]))
        assert len(run.times) == len(run.states)

    def test_state_at_and_holding_intervals_cover_horizon(self):
        simulator = ArcadeSimulator(make_mini_model(), seed=7)
        run = simulator.simulate(200.0)
        assert run.state_at(0.0) == run.states[0]
        total = sum(end - start for start, end, _ in run.holding_intervals())
        assert total == pytest.approx(run.horizon)
        with pytest.raises(ValueError):
            run.state_at(1e9)

    def test_disaster_start_state(self):
        simulator = ArcadeSimulator(make_mini_model(), seed=1)
        run = simulator.simulate(10.0, disaster="everything")
        assert simulator.failed_components(run.states[0]) == {"alpha", "beta", "gamma"}
        assert not simulator.is_operational(run.states[0])
        assert float(simulator.service_level(run.states[0])) == 0.0

    def test_without_repairs_failures_are_permanent(self):
        simulator = ArcadeSimulator(make_mini_model(), with_repairs=False, seed=3)
        run = simulator.simulate(100_000.0)
        failed_counts = [len(simulator.failed_components(state)) for state in run.states]
        assert failed_counts == sorted(failed_counts)
        assert failed_counts[-1] == 3  # eventually everything fails and stays failed

    def test_cost_rate_observable(self):
        simulator = ArcadeSimulator(make_mini_model(), seed=5)
        all_up = simulator.initial_state()
        assert simulator.cost_rate(all_up) == pytest.approx(1.0)
        disaster = simulator.initial_state("everything")
        assert simulator.cost_rate(disaster) == pytest.approx(9.0)

    def test_reproducible_with_seed(self):
        run_a = ArcadeSimulator(make_mini_model(), seed=11).simulate(300.0)
        run_b = ArcadeSimulator(make_mini_model(), seed=11).simulate(300.0)
        assert run_a.times == run_b.times
        assert run_a.states == run_b.states

    def test_invalid_horizon(self):
        with pytest.raises(ValueError):
            ArcadeSimulator(make_mini_model(), seed=0).simulate(0.0)


class TestSharedSemantics:
    def test_simulator_walks_the_built_chain(self):
        space = line_state_space(
            LINE2, StrategyConfiguration(RepairStrategy.FASTEST_REPAIR_FIRST, 1)
        )
        rates = space.chain.rate_matrix
        operational = space.chain.label_mask("operational")
        costs = space.reward_model.reward_structure("cost").state_rewards
        simulator = ArcadeSimulator(space.model, seed=2010)
        steps = 0
        for disaster in (None, *(d.name for d in space.model.disasters)):
            for _ in range(10):
                run = simulator.simulate(300.0, disaster=disaster)
                path = [space.state_index(state) for state in run.states]
                for source, target in zip(path, path[1:]):
                    assert rates[source, target] > 0.0
                steps += len(path) - 1
                for state, index in zip(run.states, path):
                    assert simulator.failed_components(state) == space.failed_components(index)
                    assert simulator.is_operational(state) == operational[index]
                    assert simulator.service_level(state) == space.service_levels[index]
                    assert simulator.cost_rate(state) == costs[index]
        assert steps >= 100


class TestConfidenceInterval:
    def test_basic_properties(self):
        interval = _interval(np.array([1.0, 2.0, 3.0, 4.0]), 0.95)
        assert interval.mean == pytest.approx(2.5)
        assert interval.lower < 2.5 < interval.upper
        assert interval.contains(2.5)
        assert "95% CI" in str(interval)

    def test_needs_at_least_two_samples(self):
        with pytest.raises(ValueError):
            _interval(np.array([1.0]), 0.95)

    def test_unknown_confidence_level(self):
        with pytest.raises(ValueError):
            _interval(np.array([1.0, 2.0]), 0.8)


class TestAgreementWithAnalyticEngine:
    """Monte-Carlo estimates must bracket the exact values (generous tolerances)."""

    def test_availability(self):
        model = make_mini_model("fastest_repair_first")
        exact = steady_state_availability(model)
        estimate = estimate_availability(model, horizon=30_000.0, runs=15, seed=123)
        assert abs(estimate.mean - exact) < 3 * max(estimate.half_width, 1e-3)

    def test_unreliability(self):
        model = make_mini_model()
        time = 40.0
        exact = unreliability(model, time)
        estimate = estimate_unreliability(model, time, runs=1500, seed=321)
        assert abs(estimate.mean - exact) < 3 * max(estimate.half_width, 1e-3)

    def test_survivability(self):
        model = make_mini_model("fastest_repair_first")
        exact = survivability(model, "everything", 1.0, 6.0)
        estimate = estimate_survivability(model, "everything", 1.0, 6.0, runs=1500, seed=7)
        assert abs(estimate.mean - exact) < 3 * max(estimate.half_width, 1e-3)

    def test_accumulated_cost(self):
        model = make_mini_model("fastest_repair_first")
        exact = accumulated_cost(model, 10.0, "everything")
        estimate = estimate_accumulated_cost(model, 10.0, "everything", runs=400, seed=99)
        assert abs(estimate.mean - exact) < 3 * max(estimate.half_width, 0.05 * exact)
