"""Tests for the Fox–Glynn Poisson weight computation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.ctmc.foxglynn import (
    FoxGlynnWeights,
    _find_truncation_points,
    fox_glynn,
    poisson_cdf_complement,
)


def term_by_term_weights(rate: float, epsilon: float = 1e-12) -> np.ndarray:
    """The weights of the original per-term loop, kept here as the oracle."""
    left, right = _find_truncation_points(rate, epsilon)
    mode = min(max(int(math.floor(rate)), left), right)
    log_weights = np.zeros(right - left + 1, dtype=float)
    for k in range(mode, right):
        log_weights[k + 1 - left] = log_weights[k - left] + math.log(rate / (k + 1))
    for k in range(mode, left, -1):
        log_weights[k - 1 - left] = log_weights[k - left] + math.log(k / rate)
    weights = np.exp(log_weights - log_weights.max())
    return weights / float(weights.sum())


class TestFoxGlynn:
    def test_zero_rate(self):
        weights = fox_glynn(0.0)
        assert weights.left == 0 and weights.right == 0
        assert weights.weights[0] == 1.0

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            fox_glynn(-1.0)

    def test_bad_epsilon_rejected(self):
        with pytest.raises(ValueError):
            fox_glynn(1.0, epsilon=0.0)
        with pytest.raises(ValueError):
            fox_glynn(1.0, epsilon=2.0)

    def test_unattainable_epsilon_raises_instead_of_capping(self):
        # With epsilon below the double-precision resolution the cumulative
        # mass can never reach 1 - epsilon/2; the truncation walk must raise
        # rather than silently cap the window (which would bias results).
        with pytest.raises(ValueError, match="truncation"):
            fox_glynn(10.0, epsilon=1e-300)

    @pytest.mark.parametrize("rate", [0.1, 1.0, 5.0, 30.0, 123.4, 1500.0, 20_000.0])
    def test_weights_match_scipy_poisson(self, rate):
        weights = fox_glynn(rate, epsilon=1e-12)
        ks = np.arange(weights.left, weights.right + 1)
        exact = stats.poisson.pmf(ks, rate)
        assert np.allclose(weights.weights, exact, atol=1e-9, rtol=1e-6)

    @pytest.mark.parametrize("rate", [0.5, 10.0, 200.0, 5000.0])
    def test_window_carries_almost_all_mass(self, rate):
        epsilon = 1e-10
        weights = fox_glynn(rate, epsilon)
        assert weights.weights.sum() == pytest.approx(1.0, abs=1e-6)
        # The truncated tails really are below epsilon (checked via scipy).
        left_tail = stats.poisson.cdf(weights.left - 1, rate) if weights.left > 0 else 0.0
        right_tail = stats.poisson.sf(weights.right, rate)
        assert left_tail + right_tail <= 1e-6

    def test_mode_is_inside_window(self):
        for rate in (0.3, 7.7, 48.0, 912.0):
            weights = fox_glynn(rate)
            assert weights.left <= math.floor(rate) <= weights.right

    def test_weight_accessor_outside_window_is_zero(self):
        weights = fox_glynn(10.0)
        assert weights.weight(weights.left - 1) == 0.0
        assert weights.weight(weights.right + 1) == 0.0
        assert weights.weight(weights.left) > 0.0

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            FoxGlynnWeights(left=5, right=4, weights=np.array([]), total=0.0)

    def test_poisson_cdf_complement_matches_scipy(self):
        for rate, k in ((1.0, 0), (5.0, 5), (20.0, 30)):
            assert poisson_cdf_complement(rate, k) == pytest.approx(
                stats.poisson.sf(k, rate), abs=1e-12
            )


@given(rate=st.floats(min_value=0.01, max_value=3000.0))
@settings(max_examples=60, deadline=None)
def test_weights_are_a_probability_distribution(rate):
    weights = fox_glynn(rate)
    assert np.all(weights.weights >= 0.0)
    assert weights.weights.sum() <= 1.0 + 1e-9
    assert weights.weights.sum() >= 1.0 - 1e-6


@given(
    rate=st.one_of(
        st.floats(min_value=0.0, max_value=25.0, exclude_min=True, exclude_max=True),
        st.floats(min_value=25.0, max_value=5000.0),
    ),
    epsilon=st.sampled_from([1e-12, 1e-10, 1e-6]),
)
@settings(max_examples=300, deadline=None)
def test_weights_are_bit_identical_to_the_term_by_term_loop(rate, epsilon):
    assert np.array_equal(fox_glynn(rate, epsilon).weights, term_by_term_weights(rate, epsilon))
