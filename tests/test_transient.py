"""Tests for transient analysis (uniformization) against analytic formulas."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.csl import ModelChecker
from repro.ctmc import CTMC, time_bounded_reachability, transient_distribution
from repro.ctmc.ctmc import CTMCError
from repro.ctmc.transient import expected_time_in_states, transient_distributions


def two_state(lam: float, mu: float) -> CTMC:
    return CTMC(
        np.array([[0.0, lam], [mu, 0.0]]),
        {0: 1.0},
        labels={"up": [0], "down": [1]},
    )


def analytic_down_probability(lam: float, mu: float, t: float) -> float:
    """P(down at t | up at 0) for the 2-state birth-death chain."""
    total = lam + mu
    return lam / total * (1.0 - np.exp(-total * t))


class TestTransientDistribution:
    @pytest.mark.parametrize("lam, mu, t", [(0.01, 0.5, 1.0), (0.1, 1.0, 3.0), (2.0, 5.0, 0.2)])
    def test_matches_analytic_two_state(self, lam, mu, t):
        chain = two_state(lam, mu)
        distribution = transient_distribution(chain, t)
        assert distribution[1] == pytest.approx(analytic_down_probability(lam, mu, t), abs=1e-9)
        assert distribution.sum() == pytest.approx(1.0, abs=1e-9)

    def test_time_zero_returns_initial(self, two_state_chain):
        assert transient_distribution(two_state_chain, 0.0) == pytest.approx([1.0, 0.0])

    def test_negative_time_rejected(self, two_state_chain):
        with pytest.raises(CTMCError):
            transient_distribution(two_state_chain, -1.0)

    def test_multiple_time_points(self, two_state_chain):
        times = [0.0, 1.0, 10.0, 100.0]
        distributions = transient_distributions(two_state_chain, times)
        assert distributions.shape == (4, 2)
        for row in distributions:
            assert row.sum() == pytest.approx(1.0, abs=1e-9)
        # The down probability grows towards its steady-state value.
        assert np.all(np.diff(distributions[:, 1]) >= -1e-12)

    def test_custom_initial_distribution(self, two_state_chain):
        distribution = transient_distribution(
            two_state_chain, 1.0, initial_distribution=np.array([0.0, 1.0])
        )
        assert distribution[0] > 0.3  # repair rate 0.5/h acts within the hour

    def test_converges_to_steady_state(self):
        chain = two_state(0.02, 0.4)
        late = transient_distribution(chain, 2000.0)
        assert late[1] == pytest.approx(0.02 / 0.42, abs=1e-8)

    def test_chain_without_transitions(self):
        chain = CTMC(np.zeros((3, 3)), {1: 1.0})
        assert transient_distribution(chain, 5.0) == pytest.approx([0.0, 1.0, 0.0])


class TestTimeBoundedReachability:
    def test_exponential_failure(self):
        lam = 1.0 / 500.0
        chain = two_state(lam, 1.0)
        for t in (1.0, 10.0, 100.0):
            assert time_bounded_reachability(chain, "down", t) == pytest.approx(
                1.0 - np.exp(-lam * t), abs=1e-9
            )

    def test_vector_of_time_bounds(self, two_state_chain):
        values = time_bounded_reachability(two_state_chain, "down", [0.0, 1.0, 5.0])
        assert values.shape == (3,)
        assert values[0] == 0.0
        assert np.all(np.diff(values) >= 0.0)

    def test_safe_set_restricts_paths(self, absorbing_chain):
        # Reaching "failed" while avoiding state 1 is impossible.
        blocked = time_bounded_reachability(
            absorbing_chain, "failed", 100.0, safe=[0]
        )
        assert blocked == pytest.approx(0.0, abs=1e-12)

    def test_per_state_variant_agrees_with_forward(self, absorbing_chain):
        t = 25.0
        per_state = ModelChecker(absorbing_chain).check_states(
            f'P=? [ true U<={t} "failed" ]'
        )
        forward = time_bounded_reachability(absorbing_chain, "failed", t)
        assert per_state[0] == pytest.approx(forward, abs=1e-9)
        assert per_state[2] == pytest.approx(1.0)

    def test_target_reached_at_time_zero(self, two_state_chain):
        assert time_bounded_reachability(two_state_chain, "up", 0.0) == pytest.approx(1.0)

    def test_expected_time_in_states(self):
        lam, mu = 0.05, 0.5
        chain = two_state(lam, mu)
        horizon = 200.0
        expected_up = expected_time_in_states(chain, "up", horizon)
        # Long-run fraction of time up is mu/(lam+mu); the transient phase
        # only makes the expected up-time larger.
        assert expected_up >= horizon * mu / (lam + mu) - 1e-6
        assert expected_up <= horizon


@given(
    lam=st.floats(min_value=1e-4, max_value=2.0),
    mu=st.floats(min_value=1e-2, max_value=5.0),
    t=st.floats(min_value=0.0, max_value=500.0),
)
@settings(max_examples=60, deadline=None)
def test_two_state_transient_is_exact(lam, mu, t):
    """Property: uniformization reproduces the closed-form 2-state solution."""
    chain = two_state(lam, mu)
    distribution = transient_distribution(chain, t)
    assert distribution[1] == pytest.approx(analytic_down_probability(lam, mu, t), abs=1e-7)
    assert abs(distribution.sum() - 1.0) < 1e-8
