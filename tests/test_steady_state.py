"""Tests for steady-state analysis and BSCC decomposition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ctmc import (
    CTMC,
    LinearSolveStats,
    SolverEngine,
    bottom_strongly_connected_components,
    steady_state_distribution,
    steady_state_probability,
)
from repro.ctmc import steady_state


class TestBSCC:
    def test_irreducible_chain_is_one_bscc(self, two_state_chain):
        bsccs = bottom_strongly_connected_components(two_state_chain)
        assert len(bsccs) == 1
        assert list(bsccs[0]) == [0, 1]

    def test_absorbing_state_is_its_own_bscc(self, absorbing_chain):
        bsccs = bottom_strongly_connected_components(absorbing_chain)
        assert len(bsccs) == 1
        assert list(bsccs[0]) == [2]

    def test_two_absorbing_states(self):
        rates = np.array(
            [
                [0.0, 1.0, 3.0],
                [0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0],
            ]
        )
        chain = CTMC(rates, {0: 1.0})
        bsccs = bottom_strongly_connected_components(chain)
        assert [list(b) for b in bsccs] == [[1], [2]]

    def test_several_bsccs_and_isolated_absorbing_states(self):
        rates = np.zeros((7, 7))
        rates[0, 1] = rates[1, 2] = rates[2, 1] = 1.0  # 0 feeds the cycle {1, 2}
        rates[0, 3] = rates[3, 4] = rates[4, 3] = 2.0  # ... and the cycle {3, 4}
        rates[6, 5] = 1.0  # 5 has no transitions at all; 6 drains into it
        chain = CTMC(rates, {0: 1.0})
        bsccs = bottom_strongly_connected_components(chain)
        expected = [[1, 2], [3, 4], [5]]
        assert [b.tolist() for b in bsccs] == _closure_bsccs(rates) == expected

    def test_seeded_reducible_chains_match_the_closure_oracle(self):
        several = isolated = 0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            size = int(rng.integers(1, 41))
            rates = rng.uniform(0.1, 3.0, (size, size))
            rates *= rng.random((size, size)) < rng.uniform(0.0, 0.3)
            absorbing = int(rng.integers(0, size // 4 + 1))
            rates[rng.choice(size, size=absorbing, replace=False), :] = 0.0
            np.fill_diagonal(rates, 0.0)
            expected = _closure_bsccs(rates)
            bsccs = bottom_strongly_connected_components(CTMC(rates, {0: 1.0}))
            assert [b.tolist() for b in bsccs] == expected, f"seed {seed}"
            several += len(expected) > 1
            isolated += bool(np.any(~rates.any(axis=0) & ~rates.any(axis=1)))
        # The population exercises what the oracle is for.
        assert several >= 50 and isolated >= 20

    @given(
        size=st.integers(1, 12),
        edges=st.sets(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=40),
        absorbing=st.sets(st.integers(0, 11), max_size=4),
    )
    @settings(max_examples=300, deadline=None)
    def test_generated_chains_match_the_closure_oracle(self, size, edges, absorbing):
        rates = np.zeros((size, size))
        for source, target in edges:
            if source < size and target < size and source != target:
                rates[source, target] = 1.0 + (source + target) % 3
        rates[[state for state in absorbing if state < size], :] = 0.0
        bsccs = bottom_strongly_connected_components(CTMC(rates, {0: 1.0}))
        assert [b.tolist() for b in bsccs] == _closure_bsccs(rates)
        assert all(b.dtype.kind == "i" for b in bsccs)


def _closure_bsccs(rates: np.ndarray) -> list[list[int]]:
    """Brute-force BSCCs from the reflexive transitive closure.

    Two states share a component when each reaches the other; a component
    is bottom when every state reachable from it lies inside it.  Each
    component is listed once, at its smallest state.
    """
    size = rates.shape[0]
    reach = (rates > 0.0) | np.eye(size, dtype=bool)
    for middle in range(size):  # Warshall
        reach |= reach[:, [middle]] & reach[[middle], :]
    mutual = reach & reach.T
    bsccs = []
    for state in range(size):
        members = np.flatnonzero(mutual[state])
        if members[0] == state and not np.any(reach[state] & ~mutual[state]):
            bsccs.append(members.tolist())
    return bsccs


class TestSteadyState:
    def test_two_state_balance(self):
        lam, mu = 0.02, 0.4
        chain = CTMC(np.array([[0.0, lam], [mu, 0.0]]), {0: 1.0}, labels={"up": [0]})
        distribution = steady_state_distribution(chain)
        assert distribution[0] == pytest.approx(mu / (lam + mu), abs=1e-12)
        assert steady_state_probability(chain, "up") == pytest.approx(mu / (lam + mu))

    def test_three_state_cycle(self):
        # A cycle with distinct rates: pi_i proportional to 1/rate_i.
        rates = np.zeros((3, 3))
        rates[0, 1], rates[1, 2], rates[2, 0] = 1.0, 2.0, 4.0
        chain = CTMC(rates, {0: 1.0})
        distribution = steady_state_distribution(chain)
        expected = np.array([1.0, 0.5, 0.25])
        expected /= expected.sum()
        assert distribution == pytest.approx(expected, abs=1e-10)

    def test_absorbing_chain_concentrates_in_absorbing_state(self, absorbing_chain):
        distribution = steady_state_distribution(absorbing_chain)
        assert distribution == pytest.approx([0.0, 0.0, 1.0], abs=1e-10)

    def test_multiple_bsccs_weighted_by_reachability(self):
        # From state 0, jump to absorbing state 1 w.p. 1/4 and state 2 w.p. 3/4.
        rates = np.array(
            [
                [0.0, 1.0, 3.0],
                [0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0],
            ]
        )
        chain = CTMC(rates, {0: 1.0})
        distribution = steady_state_distribution(chain)
        assert distribution == pytest.approx([0.0, 0.25, 0.75], abs=1e-10)

    def test_initial_distribution_matters_with_multiple_bsccs(self):
        rates = np.array(
            [
                [0.0, 1.0, 3.0],
                [0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0],
            ]
        )
        chain = CTMC(rates, {0: 1.0})
        from_state_1 = steady_state_distribution(chain, np.array([0.0, 1.0, 0.0]))
        assert from_state_1 == pytest.approx([0.0, 1.0, 0.0])

    def test_power_method_agrees_with_direct(self, mini_space, monkeypatch):
        """Power iteration, which BSCCs above the direct limit take, agrees
        with the direct solve."""
        chain = mini_space.chain
        direct_stats, power_stats = LinearSolveStats(), LinearSolveStats()
        direct = steady_state_distribution(chain, engine=SolverEngine(stats=direct_stats))
        monkeypatch.setattr(steady_state, "_DIRECT_LIMIT", 0)
        power = steady_state_distribution(chain, engine=SolverEngine(stats=power_stats))
        assert (direct_stats.factorizations, power_stats.factorizations) == (1, 0)
        assert power == pytest.approx(direct, abs=1e-9)

    def test_unknown_method_rejected(self, two_state_chain):
        """No steady-state function takes a ``method=`` knob, known name or
        not: the BSCC's size alone picks the direct solve or power iteration."""
        chain = two_state_chain
        block = chain.initial_distribution[None, :]
        calls = [
            (steady_state_distribution, (chain,)),
            (steady_state.steady_state_distribution_block, (chain, block)),
            (steady_state.steady_state_values_per_state, (chain, np.array([1.0, 0.0]))),
            (steady_state_probability, (chain, "up")),
        ]
        for function, args in calls:
            for method in ("banana", "direct", "power"):
                with pytest.raises(TypeError, match="method"):
                    function(*args, method=method)


@given(
    lam=st.floats(min_value=1e-3, max_value=5.0),
    mu=st.floats(min_value=1e-3, max_value=5.0),
)
@settings(max_examples=50, deadline=None)
def test_birth_death_detailed_balance(lam, mu):
    """Property: the 2-state steady state satisfies detailed balance."""
    chain = CTMC(np.array([[0.0, lam], [mu, 0.0]]), {0: 1.0})
    distribution = steady_state_distribution(chain)
    assert distribution[0] * lam == pytest.approx(distribution[1] * mu, rel=1e-9)
    assert distribution.sum() == pytest.approx(1.0)
