"""Tests for the cached linear-solver engine (`repro.ctmc.linsolve`).

Covers the engine primitives (subset signatures, stacked-RHS
factorizations, local vs artifact-cache-backed stores), the qualitative
0/1 precomputation of unbounded reachability, and the batched long-run
solves (reachability rewards, steady-state blocks) against their per-call
reference implementations.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ctmc import CTMC
from repro.ctmc.ctmc import CTMCError
from repro.ctmc.dtmc import (
    DTMC,
    embedded_dtmc,
    qualitative_reachability,
    unbounded_reachability,
)
from repro.ctmc.engines import SparseFactorization
from repro.ctmc.linsolve import (
    LinearSolveStats,
    SolverEngine,
    expected_values_under,
    reachability_reward_reference,
    reachability_reward_values,
    subset_signature,
)
from repro.ctmc.steady_state import (
    steady_state_distribution,
    steady_state_distribution_block,
    steady_state_values_per_state,
)
from repro.service import ArtifactCache


def random_chain(num_states: int, seed: int, absorbing: int = 0) -> CTMC:
    rng = np.random.default_rng(seed)
    rates = rng.random((num_states, num_states)) * (
        rng.random((num_states, num_states)) < 0.4
    )
    rates[0, 1] = 0.5  # keep at least one transition
    np.fill_diagonal(rates, 0.0)
    rates[num_states - absorbing :] = 0.0  # absorbing tail states
    initial = rng.random(num_states)
    return CTMC(rates, initial / initial.sum())


# ---------------------------------------------------------------------------
# engine primitives
# ---------------------------------------------------------------------------
class TestEnginePrimitives:
    def test_subset_signature_is_canonical_and_typed(self):
        mask = np.array([True, False, True, True, False])
        assert subset_signature(mask) == subset_signature(mask.copy())
        assert subset_signature(mask) != subset_signature(~mask)
        with pytest.raises(CTMCError):
            subset_signature(np.array([0, 2, 3]))  # index arrays are ambiguous

    def test_factorization_solves_stacked_columns(self):
        rng = np.random.default_rng(7)
        matrix = rng.random((6, 6)) + 6.0 * np.eye(6)
        rhs = rng.random((6, 4))
        factorization = SparseFactorization(matrix)
        solution = factorization.solve(rhs)
        assert solution.shape == (6, 4)
        assert np.max(np.abs(matrix @ solution - rhs)) < 1e-10

    def test_engine_counts_factorizations_once_per_system(self):
        chain = random_chain(8, seed=1)
        engine = SolverEngine()
        mask = np.zeros(8, dtype=bool)
        mask[2:6] = True
        token = b"test|" + subset_signature(mask)

        def builder():
            indices = np.flatnonzero(mask)
            sub = chain.generator_matrix()[np.ix_(indices, indices)]
            return sub - 10.0 * np.eye(indices.size)

        first = engine.factorization(chain, token, builder)
        second = engine.factorization(chain, token, builder)
        assert first is second
        assert engine.stats.factorizations == 1
        engine.solve(first, np.ones(4))
        engine.solve(first, np.ones((4, 3)))
        assert engine.stats.solves == 2
        assert engine.stats.columns == 4

    def test_engines_share_factorizations_through_artifact_cache(self):
        chain = random_chain(8, seed=2)
        cache = ArtifactCache()
        stats = LinearSolveStats()
        token = b"shared|" + subset_signature(np.ones(8, dtype=bool))

        def builder():
            return chain.generator_matrix() - 3.0 * np.eye(8)

        first = SolverEngine(artifacts=cache, stats=stats).factorization(
            chain, token, builder
        )
        second = SolverEngine(artifacts=cache, stats=stats).factorization(
            chain, token, builder
        )
        assert first is second
        assert stats.factorizations == 1  # the second engine hit the cache
        snapshot = cache.stats()
        assert snapshot.kind("factorization").hits == 1
        assert snapshot.kind("factorization").misses == 1

    def test_stats_absorb_and_reset(self):
        stats = LinearSolveStats(factorizations=1, solves=2, columns=5)
        total = LinearSolveStats()
        total.absorb(stats)
        assert (total.factorizations, total.solves, total.columns) == (1, 2, 5)
        total.reset()
        assert (total.factorizations, total.solves, total.columns) == (0, 0, 0)


# ---------------------------------------------------------------------------
# qualitative precomputation
# ---------------------------------------------------------------------------
class TestQualitativeReachability:
    def test_irreducible_chain_is_all_certain(self):
        rates = np.zeros((6, 6))
        for state in range(6):
            rates[state, (state + 1) % 6] = 1.0 + state  # a strongly connected cycle
        rates[0, 3] = 0.5
        chain = CTMC(rates, {0: 1.0})
        matrix = embedded_dtmc(chain).transition_matrix
        target = np.zeros(6, dtype=bool)
        target[4] = True
        certain, maybe = qualitative_reachability(
            matrix, target, np.ones(6, dtype=bool)
        )
        # Strongly-connected jump chain: every state reaches the target
        # almost surely, so the linear system disappears entirely.
        assert certain.all()
        assert not maybe.any()

    def test_gambler_chain_classification(self):
        # 0 and 2 absorbing; from 1 the game goes either way.
        matrix = np.array(
            [
                [1.0, 0.0, 0.0],
                [0.5, 0.0, 0.5],
                [0.0, 0.0, 1.0],
            ]
        )
        dtmc = DTMC(matrix)
        certain, maybe = qualitative_reachability(
            dtmc.transition_matrix,
            np.array([False, False, True]),
            np.ones(3, dtype=bool),
        )
        assert list(certain) == [False, False, True]
        assert list(maybe) == [False, True, False]
        probabilities = dtmc.reachability_probabilities([2])
        assert probabilities == pytest.approx([0.0, 0.5, 1.0])

    def test_substochastic_rows_are_never_certain(self):
        # State 0 jumps to the target with probability 0.5 and *leaks* the
        # rest: it must stay a maybe state, not be misclassified as certain.
        matrix = np.array([[0.0, 0.5], [0.0, 1.0]])
        dtmc = DTMC(matrix)
        certain, maybe = qualitative_reachability(
            dtmc.transition_matrix,
            np.array([False, True]),
            np.ones(2, dtype=bool),
        )
        assert list(certain) == [False, True]
        assert list(maybe) == [True, False]
        probabilities = dtmc.reachability_probabilities([1])
        assert probabilities == pytest.approx([0.5, 1.0])

    def test_unsafe_states_block_reachability(self):
        chain = random_chain(6, seed=4)
        safe = np.ones(6, dtype=bool)
        safe[2] = False
        target = np.zeros(6, dtype=bool)
        target[5] = True
        with_engine = unbounded_reachability(chain, target, safe, engine=SolverEngine())
        without = unbounded_reachability(chain, target, safe)
        assert with_engine == pytest.approx(without, abs=1e-12)
        assert with_engine[2] == 0.0  # unsafe non-target state

    def test_engine_caches_embedded_matrix_and_factorization(self):
        chain = random_chain(10, seed=5, absorbing=2)
        cache = ArtifactCache()
        engine = SolverEngine(artifacts=cache)
        target = np.zeros(10, dtype=bool)
        target[9] = True
        first = unbounded_reachability(chain, target, engine=engine)
        before = cache.stats()
        second = unbounded_reachability(chain, target, engine=engine)
        deltas = cache.stats().misses_since(before)
        assert first == pytest.approx(second, abs=0.0)
        assert deltas.get("embedded", 0) == 0
        assert deltas.get("factorization", 0) == 0


# ---------------------------------------------------------------------------
# batched long-run solves vs per-call references
# ---------------------------------------------------------------------------
class TestReachabilityRewards:
    def test_stacked_columns_match_reference_and_share_one_factorization(self):
        chain = random_chain(12, seed=6)
        target = np.zeros(12, dtype=bool)
        target[3] = True
        rng = np.random.default_rng(8)
        columns = rng.random((12, 5))
        engine = SolverEngine()
        values = reachability_reward_values(chain, target, columns, engine=engine)
        assert engine.stats.factorizations <= 2  # reach system + reward system
        for k in range(5):
            reference = reachability_reward_reference(chain, columns[:, k], target)
            batched = float(chain.initial_distribution @ values[:, k])
            assert batched == pytest.approx(reference, rel=1e-12, abs=1e-12)

    def test_unreachable_states_have_infinite_reward(self):
        # Two absorbing states; from state 0 the chain may get stuck in the
        # non-target absorber, so the expected reward to the target is inf.
        rates = np.array(
            [
                [0.0, 1.0, 3.0],
                [0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0],
            ]
        )
        chain = CTMC(rates, {0: 1.0})
        target = np.array([False, True, False])
        values = reachability_reward_values(
            chain, target, np.ones((3, 1)), engine=SolverEngine()
        )
        assert values[0, 0] == np.inf
        assert values[1, 0] == 0.0
        assert values[2, 0] == np.inf
        assert reachability_reward_reference(chain, np.ones(3), target) == np.inf

    def test_expected_values_under_handles_infinities(self):
        values = np.array([[1.0], [np.inf], [2.0]])
        block = np.array([[0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
        expected = expected_values_under(block, values)
        assert expected[0, 0] == pytest.approx(1.5)
        assert expected[1, 0] == np.inf


class TestSteadyStateBlocks:
    def test_block_matches_per_row_reference(self):
        chain = random_chain(9, seed=9, absorbing=2)
        rng = np.random.default_rng(10)
        block = rng.random((4, 9))
        block /= block.sum(axis=1, keepdims=True)
        batched = steady_state_distribution_block(chain, block, engine=SolverEngine())
        for row in range(4):
            reference = steady_state_distribution(chain, block[row])
            assert batched[row] == pytest.approx(reference, abs=1e-12)

    def test_values_per_state_match_point_mass_loop(self):
        chain = random_chain(8, seed=11, absorbing=2)
        observable = np.linspace(0.0, 1.0, 8)
        values = steady_state_values_per_state(chain, observable, engine=SolverEngine())
        for state in range(8):
            point = np.zeros(8)
            point[state] = 1.0
            reference = float(steady_state_distribution(chain, point) @ observable)
            assert values[state] == pytest.approx(reference, abs=1e-10)

    def test_warm_engine_reuses_bscc_and_stationary(self):
        chain = random_chain(10, seed=12, absorbing=3)
        cache = ArtifactCache()
        first = steady_state_distribution(chain, engine=SolverEngine(artifacts=cache))
        before = cache.stats()
        second = steady_state_distribution(chain, engine=SolverEngine(artifacts=cache))
        deltas = cache.stats().misses_since(before)
        assert first == pytest.approx(second, abs=0.0)
        assert deltas.get("bscc", 0) == 0
        assert deltas.get("stationary", 0) == 0
        assert deltas.get("factorization", 0) == 0
        assert deltas.get("absorption", 0) == 0
        assert deltas.get("embedded", 0) == 0
