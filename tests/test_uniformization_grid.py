"""Grid evaluation by the uniformization engine vs independent per-point evaluation.

The engine (:mod:`repro.ctmc.uniformization`) evaluates a whole time grid in
one vector-power sweep.  These tests pin its results to *independent*
per-point reference implementations that replicate the classic one-sweep-per-
time-point uniformization recursion (the pre-engine behaviour), to <= 1e-9,
including unsorted grids, duplicate entries and ``t = 0``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ctmc import CTMC
from repro.ctmc.ctmc import CTMCError
from repro.ctmc.foxglynn import fox_glynn
from repro.ctmc.rewards import cumulative_reward_curve, instantaneous_reward_curve
from repro.ctmc.transient import time_bounded_reachability, transient_distributions
from repro.ctmc.uniformization import UniformizationStats, evaluate_grid_block

EPSILON = 1e-10

#: Deliberately unsorted, with duplicates and t = 0.
GRID = [7.5, 0.0, 1.0, 30.0, 7.5, 0.25, 1.0, 0.0, 15.0]


def random_chain(num_states: int, seed: int, density: float = 0.3) -> CTMC:
    rng = np.random.default_rng(seed)
    rates = rng.random((num_states, num_states)) * (
        rng.random((num_states, num_states)) < density
    )
    rates[0, 1] = 0.5  # make sure the chain has at least one transition
    np.fill_diagonal(rates, 0.0)
    initial = rng.random(num_states)
    return CTMC(rates, initial / initial.sum(), labels={"target": [num_states - 1]})


def reference_transient(
    chain: CTMC, time: float, initial: np.ndarray | None = None
) -> np.ndarray:
    """Per-point uniformization exactly as the seed implemented it."""
    pi0 = chain.initial_distribution if initial is None else np.asarray(initial, float)
    if time == 0.0 or chain.max_exit_rate == 0.0:
        return pi0.copy()
    probabilities, q = chain.uniformized_matrix()
    transposed = probabilities.T.tocsr()
    weights = fox_glynn(q * float(time), EPSILON)
    accumulator = np.zeros(chain.num_states)
    vector = pi0.copy()
    for _ in range(weights.left):
        vector = transposed @ vector
    for k in range(weights.left, weights.right + 1):
        accumulator += weights.weight(k) * vector
        if k < weights.right:
            vector = transposed @ vector
    return accumulator


def reference_cumulative(
    chain: CTMC, rewards: np.ndarray, time: float, initial: np.ndarray | None = None
) -> float:
    """Per-bound accumulated reward exactly as the seed implemented it."""
    pi0 = chain.initial_distribution if initial is None else np.asarray(initial, float)
    if time == 0.0:
        return 0.0
    if chain.max_exit_rate == 0.0:
        return float(time * (pi0 @ rewards))
    probabilities, q = chain.uniformized_matrix()
    transposed = probabilities.T.tocsr()
    weights = fox_glynn(q * float(time), EPSILON)
    cumulative = np.cumsum(weights.weights)
    total = float(cumulative[-1])
    vector = pi0.copy()
    accumulated = 0.0
    for k in range(0, weights.right + 1):
        tail = total if k < weights.left else total - float(cumulative[k - weights.left])
        if tail <= 0.0:
            break
        accumulated += tail * float(vector @ rewards)
        vector = transposed @ vector
    return accumulated / q


@pytest.fixture(params=[3, 12, 40], ids=lambda n: f"{n}states")
def chain(request) -> CTMC:
    return random_chain(request.param, seed=request.param)


class TestTransientGrid:
    def test_matches_per_point_reference(self, chain):
        grid = transient_distributions(chain, GRID, epsilon=EPSILON)
        for row, time in enumerate(GRID):
            expected = reference_transient(chain, time)
            assert np.max(np.abs(grid[row] - expected)) <= 1e-9

    def test_duplicate_times_give_identical_rows(self, chain):
        grid = transient_distributions(chain, GRID, epsilon=EPSILON)
        assert np.array_equal(grid[0], grid[4])  # both t = 7.5
        assert np.array_equal(grid[2], grid[6])  # both t = 1.0

    def test_time_zero_rows_are_initial(self, chain):
        grid = transient_distributions(chain, GRID, epsilon=EPSILON)
        assert grid[1] == pytest.approx(chain.initial_distribution, abs=1e-12)
        assert grid[7] == pytest.approx(chain.initial_distribution, abs=1e-12)

    def test_custom_initial_distribution(self, chain):
        initial = np.zeros(chain.num_states)
        initial[-1] = 1.0
        grid = transient_distributions(chain, GRID, initial, epsilon=EPSILON)
        for row, time in enumerate(GRID):
            expected = reference_transient(chain, time, initial)
            assert np.max(np.abs(grid[row] - expected)) <= 1e-9

    def test_rows_are_distributions(self, chain):
        grid = transient_distributions(chain, GRID, epsilon=EPSILON)
        assert grid.sum(axis=1) == pytest.approx(np.ones(len(GRID)), abs=1e-8)


class TestReachabilityGrid:
    def test_matches_per_point_evaluation(self, chain):
        curve = time_bounded_reachability(chain, "target", GRID, epsilon=EPSILON)
        for index, time in enumerate(GRID):
            single = time_bounded_reachability(chain, "target", float(time), epsilon=EPSILON)
            assert abs(curve[index] - single) <= 1e-9


class TestRewardGrids:
    def test_cumulative_matches_per_point_reference(self, chain):
        rewards = np.linspace(0.0, 3.0, chain.num_states)
        curve = cumulative_reward_curve((chain, rewards), GRID, epsilon=EPSILON)
        for index, time in enumerate(GRID):
            expected = reference_cumulative(chain, rewards, time)
            assert abs(curve[index] - expected) <= 1e-9

    def test_cumulative_at_zero_is_zero(self, chain):
        rewards = np.ones(chain.num_states)
        curve = cumulative_reward_curve((chain, rewards), [0.0, 0.0], epsilon=EPSILON)
        assert curve == pytest.approx([0.0, 0.0], abs=0.0)

    def test_instantaneous_matches_distribution_dot(self, chain):
        rewards = np.linspace(1.0, 2.0, chain.num_states)
        curve = instantaneous_reward_curve((chain, rewards), GRID, epsilon=EPSILON)
        for index, time in enumerate(GRID):
            expected = float(reference_transient(chain, time) @ rewards)
            assert abs(curve[index] - expected) <= 1e-9


def initial_row(chain: CTMC) -> np.ndarray:
    """The chain's initial distribution as a one-row initial block."""
    return chain.initial_distribution[None, :]


class TestEngineBehaviour:
    def test_single_sweep_matvec_count(self, chain):
        """The grid shares one sweep: matvecs == largest right truncation point."""
        stats = UniformizationStats()
        _, q = chain.uniformized_matrix()
        evaluate_grid_block(
            chain,
            GRID,
            initial_row(chain),
            distributions=True,
            epsilon=EPSILON,
            stats=stats,
        )
        expected = max(fox_glynn(q * t, EPSILON).right for t in GRID if t > 0.0)
        assert stats.matvecs == expected
        assert stats.sweeps == 1
        per_point = sum(fox_glynn(q * t, EPSILON).right for t in GRID if t > 0.0)
        assert per_point > stats.matvecs

    def test_empty_grid(self, chain):
        result = evaluate_grid_block(
            chain, [], initial_row(chain), distributions=True, epsilon=EPSILON
        )
        assert result.distributions.shape == (1, 0, chain.num_states)
        assert result.matvecs == 0

    def test_transitionless_chain(self):
        chain = CTMC(np.zeros((3, 3)), {1: 1.0})
        rewards = np.array([1.0, 2.0, 3.0])
        result = evaluate_grid_block(
            chain,
            [0.0, 4.0],
            initial_row(chain),
            rewards,
            distributions=True,
            instantaneous=True,
            cumulative=True,
        )
        assert result.distributions[0] == pytest.approx(
            np.array([[0, 1, 0], [0, 1, 0]])
        )
        assert result.instantaneous[0, :, 0] == pytest.approx([2.0, 2.0])
        assert result.cumulative[0, :, 0] == pytest.approx([0.0, 8.0])

    def test_negative_time_rejected(self, chain):
        with pytest.raises(CTMCError):
            evaluate_grid_block(chain, [1.0, -0.5], initial_row(chain))

    def test_non_finite_time_rejected(self, chain):
        # NaN compares false against every bound, so without an explicit
        # check it would silently produce an all-zero "distribution" row.
        with pytest.raises(CTMCError):
            evaluate_grid_block(chain, [float("nan"), 1.0], initial_row(chain))
        with pytest.raises(CTMCError):
            evaluate_grid_block(chain, [float("inf")], initial_row(chain))

    def test_reward_outputs_require_rewards(self, chain):
        with pytest.raises(CTMCError):
            evaluate_grid_block(chain, [1.0], initial_row(chain), cumulative=True)

    def test_wrong_initial_distribution_length(self, chain):
        with pytest.raises(CTMCError):
            evaluate_grid_block(chain, [1.0], np.ones((1, chain.num_states + 1)))


class TestInitialBlockBatching:
    """A 2-D initial block must reproduce the per-initial results exactly
    while sharing a single operator traversal per vector power."""

    def _initial_block(self, chain: CTMC, rows: int = 3) -> np.ndarray:
        rng = np.random.default_rng(chain.num_states)
        block = rng.random((rows, chain.num_states))
        return block / block.sum(axis=1, keepdims=True)

    def test_block_matches_per_initial_rows(self, chain):
        block = self._initial_block(chain)
        rewards = np.linspace(0.0, 2.0, chain.num_states)
        outputs = dict(
            distributions=True, instantaneous=True, cumulative=True, epsilon=EPSILON
        )
        batched = evaluate_grid_block(chain, GRID, block, rewards, **outputs)
        assert batched.distributions.shape == (3, len(GRID), chain.num_states)
        assert batched.instantaneous.shape == (3, len(GRID), 1)
        assert batched.cumulative.shape == (3, len(GRID), 1)
        for row in range(block.shape[0]):
            single = evaluate_grid_block(chain, GRID, block[[row]], rewards, **outputs)
            np.testing.assert_allclose(
                batched.distributions[row], single.distributions[0], atol=1e-12
            )
            np.testing.assert_allclose(
                batched.instantaneous[row], single.instantaneous[0], atol=1e-12
            )
            np.testing.assert_allclose(
                batched.cumulative[row], single.cumulative[0], atol=1e-12
            )

    def test_block_shares_the_operator_traversal(self, chain):
        block = self._initial_block(chain, rows=4)
        stats = UniformizationStats()
        evaluate_grid_block(
            chain, GRID, block, distributions=True, epsilon=EPSILON, stats=stats
        )
        _, q = chain.uniformized_matrix()
        expected_applies = max(fox_glynn(q * t, EPSILON).right for t in GRID if t > 0.0)
        assert stats.applies == expected_applies
        assert stats.matvecs == expected_applies * 4
        assert stats.sweeps == 1

    def test_reward_matrix_columns(self, chain):
        block = self._initial_block(chain, rows=2)
        rng = np.random.default_rng(7)
        reward_matrix = rng.random((chain.num_states, 3))
        batched = evaluate_grid_block(
            chain, GRID, block, reward_matrix,
            instantaneous=True, cumulative=True, epsilon=EPSILON,
        )
        assert batched.instantaneous.shape == (2, len(GRID), 3)
        for column in range(3):
            single = evaluate_grid_block(
                chain, GRID, block, reward_matrix[:, column],
                instantaneous=True, cumulative=True, epsilon=EPSILON,
            )
            np.testing.assert_allclose(
                batched.instantaneous[:, :, column],
                single.instantaneous[:, :, 0],
                atol=1e-12,
            )
            np.testing.assert_allclose(
                batched.cumulative[:, :, column],
                single.cumulative[:, :, 0],
                atol=1e-12,
            )

    def test_block_on_transitionless_chain(self):
        chain = CTMC(np.zeros((3, 3)), {1: 1.0})
        block = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        rewards = np.array([1.0, 2.0, 3.0])
        result = evaluate_grid_block(
            chain, [0.0, 4.0], block, rewards, instantaneous=True, cumulative=True
        )
        np.testing.assert_allclose(result.instantaneous[:, :, 0], [[1.0, 1.0], [3.0, 3.0]])
        np.testing.assert_allclose(result.cumulative[:, :, 0], [[0.0, 4.0], [0.0, 12.0]])

    def test_malformed_blocks_rejected(self, chain):
        with pytest.raises(CTMCError):
            evaluate_grid_block(chain, [1.0], np.ones((2, chain.num_states + 1)))
        with pytest.raises(CTMCError):
            evaluate_grid_block(chain, [1.0], np.ones((0, chain.num_states))[None])
