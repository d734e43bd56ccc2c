"""Tests for the Fox–Glynn Poisson weight computation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.ctmc.foxglynn import (
    FoxGlynnWeights,
    fox_glynn,
    fox_glynn_table,
    poisson_cdf_complement,
)


def scalar_truncation_points(rate: float, epsilon: float) -> tuple[int, int]:
    """The original one-rate truncation bounds, kept here as the oracle."""
    mode = int(math.floor(rate))
    if rate < 25.0:
        cumulative = 0.0
        term = math.exp(-rate)
        k = 0
        while cumulative + term < 1.0 - epsilon / 2.0:
            cumulative += term
            k += 1
            term *= rate / k
        return 0, max(k, mode + 1)
    standard_deviation = math.sqrt(rate)
    k_left = math.ceil(math.sqrt(2.0 * math.log(4.0 / epsilon)))
    left = max(0, int(math.floor(rate - (k_left + 1.0) * standard_deviation - 1.0)))
    k_right = math.ceil(math.sqrt(2.0 * math.log(4.0 / epsilon)) + 1.0)
    right = int(math.ceil(rate + (k_right + 1.0) * standard_deviation + 4.0))
    return left, right


def term_by_term_weights(rate: float, epsilon: float = 1e-12) -> np.ndarray:
    """The weights of the original per-term loop, kept here as the oracle."""
    left, right = scalar_truncation_points(rate, epsilon)
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


#: Rates a grid row can take: both sides of the walk/bound switch at 25,
#: tiny rates whose window is two points, and rates with wide windows.
grid_rates = st.one_of(
    st.floats(min_value=0.0, max_value=25.0, exclude_min=True, exclude_max=True),
    st.floats(min_value=25.0, max_value=5000.0),
    st.floats(min_value=1e-9, max_value=1e-3),
    st.sampled_from([24.999999999999996, 25.0, 1.0, 1e-300]),
)


@given(
    rates=st.lists(grid_rates, min_size=1, max_size=24),
    extra=st.lists(grid_rates, max_size=8),
    data=st.data(),
    epsilon=st.sampled_from([1e-12, 1e-10, 1e-6]),
)
@settings(max_examples=150, deadline=None)
def test_every_table_row_is_the_term_by_term_window(rates, extra, data, epsilon):
    # Repeats and any order: draw each row again from the grid itself.
    rates = rates + data.draw(st.lists(st.sampled_from(rates), max_size=6))
    table = fox_glynn_table(rates, epsilon)
    assert table.num_rows == len(rates)
    for index, rate in enumerate(rates):
        row = table.row(index)
        assert (row.left, row.right) == scalar_truncation_points(rate, epsilon)
        assert np.array_equal(row.weights, term_by_term_weights(rate, epsilon))
        assert np.array_equal(
            table.matrix[index].toarray().ravel()[row.left : row.right + 1], row.weights
        )
    # Adding points to the grid, anywhere, changes no row.
    positions = data.draw(st.permutations(range(len(rates) + len(extra))))
    grown_rates = np.array(rates + extra)[np.argsort(positions)]
    grown = fox_glynn_table(grown_rates, epsilon)
    for index, position in enumerate(np.argsort(np.argsort(positions))[: len(rates)]):
        assert np.array_equal(grown.row(position).weights, table.row(index).weights)
        assert grown.row(position).left == table.row(index).left


def test_tails_rows_are_the_accumulation_weights():
    rates = [0.3, 7.0, 31.5, 400.0]
    table = fox_glynn_table(rates, 1e-10)
    tails = table.tails()
    full = tails.from_zero().toarray()
    for index, rate in enumerate(rates):
        window = fox_glynn(rate, 1e-10)
        mass = np.cumsum(window.weights)
        expected = np.concatenate((np.full(window.left, mass[-1]), mass[-1] - mass))
        assert np.array_equal(full[index, : window.right + 1], expected)
        assert not full[index, window.right + 1 :].any()
    sequence = np.random.default_rng(3).random((table.matrix.shape[1], 2, 3))
    np.testing.assert_allclose(
        tails.fold(sequence), np.tensordot(full, sequence, axes=(1, 0)), rtol=1e-14
    )


def test_a_table_stores_its_window_widths():
    """Storage grows with the sum of the window widths, not with rows times
    the largest truncation point, for the tails table too."""
    rates = np.linspace(0.0, 5000.0, 2_001)[1:]
    table = fox_glynn_table(rates, 1e-10)
    widths = table.right - table.left + 1
    assert table.matrix.nnz == widths.sum()
    assert table.nbytes <= 12 * widths.sum() + 20 * (table.num_rows + 1)
    assert table.tails().nbytes <= 12 * widths.sum() + 28 * (table.num_rows + 1)
    assert table.nbytes < table.num_rows * table.matrix.shape[1] * 8 / 4
