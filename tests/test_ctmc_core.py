"""Tests for the CTMC data structure and the incremental builder."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from ctmc_reference import rate_matrix_reference
from repro.ctmc import CTMC, MarkovRewardModel, RewardStructure
from repro.ctmc.ctmc import CTMCBuilder, CTMCError


@st.composite
def rate_matrix_inputs(draw):
    """Rate matrices as callers hand them to ``CTMC``: dense arrays, or CSR
    with unsorted indices, explicit zeros and some, all or no self-loops."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    num_states = draw(st.integers(1, 12))
    dense = rng.random((num_states, num_states)) * (
        rng.random((num_states, num_states)) < draw(st.sampled_from([0.2, 0.5, 1.0]))
    )
    loops = draw(st.sampled_from(["none", "some", "all"]))
    diagonal = {
        "none": np.zeros(num_states, dtype=bool),
        "some": rng.random(num_states) < 0.5,
        "all": np.ones(num_states, dtype=bool),
    }[loops]
    np.fill_diagonal(dense, np.where(diagonal, rng.random(num_states) + 0.1, 0.0))
    if draw(st.booleans()):
        return dense
    # Stored entries: the non-zeros, every self-loop cell of ``diagonal``
    # (some holding an explicit 0.0) and a few explicit off-diagonal zeros.
    stored = (dense != 0.0) | np.diag(diagonal) | (rng.random(dense.shape) < 0.1)
    rows, cols = np.nonzero(stored)
    data = dense[rows, cols]
    data[(rows == cols) & (rng.random(rows.shape[0]) < 0.3)] = 0.0
    order = np.lexsort((rng.random(rows.shape[0]), rows))  # shuffled per row
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=num_states))))
    return sparse.csr_matrix(
        (data[order], cols[order].astype(np.int32), indptr.astype(np.int32)),
        shape=dense.shape,
    )


class TestConstruction:
    def test_basic_properties(self, two_state_chain):
        assert two_state_chain.num_states == 2
        assert two_state_chain.num_transitions == 2
        assert two_state_chain.max_exit_rate == pytest.approx(0.5)
        assert two_state_chain.exit_rates == pytest.approx([0.01, 0.5])

    def test_diagonal_entries_are_dropped(self):
        rates = np.array([[5.0, 1.0], [2.0, 7.0]])
        chain = CTMC(rates, {0: 1.0})
        assert chain.num_transitions == 2
        assert chain.exit_rates == pytest.approx([1.0, 2.0])

    def test_the_callers_matrix_is_left_unchanged(self):
        given_matrix = sparse.csr_matrix([[0.5, 1, 0], [2, 0.1, 1], [0, 3, 0.2]])
        before = [array.copy() for array in (
            given_matrix.data, given_matrix.indices, given_matrix.indptr
        )]
        chain = CTMC(given_matrix, [1, 0, 0])
        after = (given_matrix.data, given_matrix.indices, given_matrix.indptr)
        for old, new in zip(before, after):
            assert np.array_equal(old, new) and old.dtype == new.dtype
        assert chain.num_transitions == 4
        # Nor does the chain share the caller's arrays afterwards.
        given_matrix.data[:] = 9.0
        assert chain.exit_rates == pytest.approx([1.0, 3.0, 3.0])

    @given(rate_matrix=rate_matrix_inputs())
    @settings(max_examples=150, deadline=None)
    def test_rate_matrix_matches_the_setdiag_reference(self, rate_matrix):
        expected = rate_matrix_reference(rate_matrix)
        chain = CTMC(rate_matrix, np.full(rate_matrix.shape[0], 1.0))
        actual = chain.rate_matrix
        for name in ("data", "indices", "indptr"):
            mine, theirs = getattr(actual, name), getattr(expected, name)
            assert mine.dtype == theirs.dtype, name
            assert np.array_equal(mine, theirs), name
        reference_chain = CTMC(expected, np.full(rate_matrix.shape[0], 1.0))
        assert chain.fingerprint == reference_chain.fingerprint
        assert np.array_equal(chain.exit_rates, reference_chain.exit_rates)

    def test_non_square_rejected(self):
        with pytest.raises(CTMCError):
            CTMC(np.ones((2, 3)), {0: 1.0})

    def test_negative_rate_rejected(self):
        with pytest.raises(CTMCError):
            CTMC(np.array([[0.0, -1.0], [0.0, 0.0]]), {0: 1.0})

    @given(rate_matrix=rate_matrix_inputs())
    @example(rate_matrix=np.array([[0.0, 1.0], [2.0, 0.0]]))  # generator [[-1, 1], [2, -2]]
    @settings(max_examples=100, deadline=None)
    def test_generator_and_rate_matrix_forms_agree(self, rate_matrix):
        rates = rate_matrix.toarray() if sparse.issparse(rate_matrix) else rate_matrix
        np.fill_diagonal(rates, 0.0)
        generator = rates - np.diag(rates.sum(axis=1))
        initial = np.full(rates.shape[0], 1.0)
        expected = CTMC(rates, initial)
        for form in (generator, sparse.csr_matrix(generator)):
            chain = CTMC(form, initial)
            for name in ("data", "indices", "indptr"):
                mine = getattr(chain.rate_matrix, name)
                theirs = getattr(expected.rate_matrix, name)
                assert mine.dtype == theirs.dtype, name
                assert np.array_equal(mine, theirs), name
            assert np.array_equal(chain.exit_rates, expected.exit_rates)
            assert chain.fingerprint == expected.fingerprint

    def test_initial_distribution_validation(self):
        rates = np.zeros((2, 2))
        with pytest.raises(CTMCError):
            CTMC(rates, {5: 1.0})
        with pytest.raises(CTMCError):
            CTMC(rates, [0.0, 0.0])
        with pytest.raises(CTMCError):
            CTMC(rates, [0.5, -0.5])

    def test_initial_distribution_is_normalised(self):
        chain = CTMC(np.zeros((2, 2)), [2.0, 2.0])
        assert chain.initial_distribution == pytest.approx([0.5, 0.5])

    def test_generator_rows_sum_to_zero(self, two_state_chain):
        generator = two_state_chain.generator_matrix()
        assert np.asarray(generator.sum(axis=1)).ravel() == pytest.approx([0.0, 0.0])

    def test_uniformized_matrix_is_stochastic(self, two_state_chain):
        matrix, rate = two_state_chain.uniformized_matrix()
        assert rate == pytest.approx(0.5)
        assert np.asarray(matrix.sum(axis=1)).ravel() == pytest.approx([1.0, 1.0])

    def test_uniformization_rate_too_small_rejected(self, two_state_chain):
        with pytest.raises(CTMCError):
            two_state_chain.uniformized_matrix(rate=0.1)


class TestLabels:
    def test_label_masks(self, two_state_chain):
        assert list(two_state_chain.label_states("up")) == [0]
        assert list(two_state_chain.label_states("down")) == [1]
        assert two_state_chain.labels_of_state(0) == {"up"}

    def test_unknown_label(self, two_state_chain):
        with pytest.raises(CTMCError):
            two_state_chain.label_mask("nonexistent")

    def test_add_label_with_boolean_mask(self, two_state_chain):
        two_state_chain.add_label("everything", np.array([True, True]))
        assert two_state_chain.label_mask("everything").sum() == 2

    def test_label_index_out_of_range(self, two_state_chain):
        with pytest.raises(CTMCError):
            two_state_chain.add_label("bad", [7])


class TestTransformations:
    def test_make_absorbing(self, two_state_chain):
        absorbing = two_state_chain.make_absorbing([1])
        assert absorbing.num_transitions == 1
        assert absorbing.exit_rates[1] == 0.0
        # Labels survive the transformation.
        assert list(absorbing.label_states("down")) == [1]

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_make_absorbing_matches_per_row_reference(self, seed):
        """The vectorized CSR row masking agrees with per-row clearing."""
        rng = np.random.default_rng(seed)
        num_states = int(rng.integers(2, 30))
        rates = rng.random((num_states, num_states)) * (
            rng.random((num_states, num_states)) < 0.25
        )
        np.fill_diagonal(rates, 0.0)
        chain = CTMC(rates, np.full(num_states, 1.0 / num_states))
        absorb = rng.random(num_states) < 0.4

        reference = chain.rate_matrix.tolil(copy=True)
        for state in np.flatnonzero(absorb):
            reference.rows[state] = []
            reference.data[state] = []

        for states in (absorb, np.flatnonzero(absorb)):
            transformed = chain.make_absorbing(states)
            assert (transformed.rate_matrix != reference.tocsr()).nnz == 0
            assert transformed.exit_rates[absorb] == pytest.approx(0.0)
            assert transformed.exit_rates[~absorb] == pytest.approx(
                chain.exit_rates[~absorb]
            )

    def test_make_absorbing_no_states(self, two_state_chain):
        unchanged = two_state_chain.make_absorbing([])
        assert (unchanged.rate_matrix != two_state_chain.rate_matrix).nnz == 0

    def test_uniformized_matrix_cached_copies_are_mutation_safe(self, two_state_chain):
        first, q1 = two_state_chain.uniformized_matrix()
        snapshot = first.toarray().copy()
        first.data[:] = -7.0  # a hostile caller scribbles over the result
        second, q2 = two_state_chain.uniformized_matrix()
        assert q1 == q2
        assert second.toarray() == pytest.approx(snapshot)

    def test_uniformized_matrix_cached_per_rate(self, two_state_chain):
        default, _ = two_state_chain.uniformized_matrix()
        larger, q = two_state_chain.uniformized_matrix(rate=2.0)
        assert q == 2.0
        assert np.asarray(larger.sum(axis=1)).ravel() == pytest.approx([1.0, 1.0])
        again, _ = two_state_chain.uniformized_matrix(rate=2.0)
        assert again.toarray() == pytest.approx(larger.toarray())
        assert default.toarray() != pytest.approx(larger.toarray())

    def test_uniformized_transpose_matches_matrix(self, two_state_chain):
        matrix, q_matrix = two_state_chain.uniformized_matrix()
        transposed, q_transposed = two_state_chain.uniformized_transpose()
        assert q_matrix == q_transposed
        assert transposed.toarray() == pytest.approx(matrix.T.toarray())
        transposed.data[:] = -1.0  # copies are mutation-safe here too
        again, _ = two_state_chain.uniformized_transpose()
        assert again.toarray() == pytest.approx(matrix.T.toarray())

    def test_with_initial_distribution(self, two_state_chain):
        moved = two_state_chain.with_initial_distribution({1: 1.0})
        assert moved.initial_state == 1
        assert two_state_chain.initial_state == 0

    def test_successors(self, two_state_chain):
        assert two_state_chain.successors(0) == [(1, 0.01)]


class TestRewards:
    def test_reward_structure_validation(self, two_state_chain):
        structure = RewardStructure("cost", np.array([0.0, 3.0]))
        model = MarkovRewardModel(two_state_chain, structure)
        assert model.reward_names == ("cost",)
        assert model.reward_structure().name == "cost"
        assert model.reward_structure("cost").expected_rate(np.array([0.5, 0.5])) == 1.5

    def test_mismatched_size_rejected(self, two_state_chain):
        with pytest.raises(CTMCError):
            MarkovRewardModel(two_state_chain, RewardStructure("cost", np.zeros(3)))

    def test_unknown_reward_name(self, two_state_chain):
        model = MarkovRewardModel(two_state_chain, RewardStructure("cost", np.zeros(2)))
        with pytest.raises(CTMCError):
            model.reward_structure("other")

    def test_multiple_structures_need_a_name(self, two_state_chain):
        model = MarkovRewardModel(
            two_state_chain,
            [RewardStructure("a", np.zeros(2)), RewardStructure("b", np.ones(2))],
        )
        with pytest.raises(CTMCError):
            model.reward_structure()
        assert model.reward_structure("b").state_rewards[0] == 1.0


class TestBuilder:
    def test_builder_accumulates_parallel_transitions(self):
        builder = CTMCBuilder()
        a = builder.add_state()
        b = builder.add_state()
        builder.add_transition(a, b, 1.0)
        builder.add_transition(a, b, 2.0)
        builder.add_label("start", a)
        chain = builder.build({a: 1.0})
        assert chain.num_states == 2
        assert chain.rate_matrix[a, b] == pytest.approx(3.0)
        assert list(chain.label_states("start")) == [0]

    def test_states_carry_no_descriptions(self):
        with pytest.raises(TypeError):
            CTMC(np.zeros((1, 1)), {0: 1.0}, state_descriptions=["a"])
        with pytest.raises(TypeError):
            CTMCBuilder().add_state("a")

    def test_builder_rejects_negative_rate(self):
        builder = CTMCBuilder()
        a = builder.add_state()
        b = builder.add_state()
        with pytest.raises(CTMCError):
            builder.add_transition(a, b, -1.0)

    def test_zero_rate_and_self_loop_ignored(self):
        builder = CTMCBuilder()
        a = builder.add_state()
        builder.add_transition(a, a, 5.0)
        builder.add_transition(a, a, 0.0)
        chain = builder.build({a: 1.0})
        assert chain.num_transitions == 0
