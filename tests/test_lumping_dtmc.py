"""Tests for CTMC lumping and the DTMC helpers."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis import AnalysisSession, MeasureKind, planner
from repro.ctmc import (
    CTMC,
    DTMC,
    embedded_dtmc,
    lump_ctmc,
    lumping,
    lumping_partition,
    steady_state_distribution,
    time_bounded_reachability,
    uniformized_dtmc,
)
from repro.ctmc.artifacts import ArtifactCache
from repro.ctmc.dtmc import unbounded_reachability

from ctmc_reference import count_blocks, lumping_partition_reference


def symmetric_two_component_chain() -> CTMC:
    """Two identical components with dedicated repair; states indexed by (up_a, up_b)."""
    lam, mu = 0.1, 1.0
    # state order: (up,up)=0, (up,down)=1, (down,up)=2, (down,down)=3
    rates = np.zeros((4, 4))
    rates[0, 1] = lam
    rates[0, 2] = lam
    rates[1, 0] = mu
    rates[1, 3] = lam
    rates[2, 0] = mu
    rates[2, 3] = lam
    rates[3, 1] = mu
    rates[3, 2] = mu
    return CTMC(
        rates,
        {0: 1.0},
        labels={"all_up": [0], "some_down": [1, 2, 3], "all_down": [3]},
    )


class TestLumping:
    def test_symmetric_states_are_merged(self):
        chain = symmetric_two_component_chain()
        partition = lumping_partition(chain)
        # States 1 and 2 are exchangeable: same labels, same aggregated rates.
        assert partition[1] == partition[2]
        assert count_blocks(partition) == 3

    def test_quotient_preserves_steady_state_of_labels(self):
        chain = symmetric_two_component_chain()
        quotient, partition = lump_ctmc(chain)
        assert quotient.num_states == 3
        full = steady_state_distribution(chain)
        small = steady_state_distribution(quotient)
        for label in ("all_up", "some_down", "all_down"):
            assert small[quotient.label_mask(label)].sum() == pytest.approx(
                full[chain.label_mask(label)].sum(), abs=1e-10
            )

    def test_quotient_preserves_transient_reachability(self):
        chain = symmetric_two_component_chain()
        quotient, _ = lump_ctmc(chain)
        for t in (0.5, 5.0, 50.0):
            assert time_bounded_reachability(quotient, "all_down", t) == pytest.approx(
                time_bounded_reachability(chain, "all_down", t), abs=1e-9
            )

    def test_distinct_labels_prevent_merging(self):
        chain = symmetric_two_component_chain()
        chain.add_label("a_down", [2, 3])
        partition = lumping_partition(chain)
        assert partition[1] != partition[2]

    def test_respect_initial_keeps_initial_state_separate(self):
        chain = symmetric_two_component_chain()
        moved = chain.with_initial_distribution({1: 1.0})
        partition = lumping_partition(moved, respect_initial=True)
        assert partition[1] != partition[2]

    def test_lumping_is_idempotent(self):
        chain = symmetric_two_component_chain()
        quotient, _ = lump_ctmc(chain)
        quotient2, _ = lump_ctmc(quotient)
        assert quotient2.num_states == quotient.num_states


class TestVectorizedRefinement:
    """The sparse `R @ indicator` refinement must equal the per-state loop."""

    @staticmethod
    def random_labelled_chain(num_states: int, seed: int, labels: int = 2) -> CTMC:
        rng = np.random.default_rng(seed)
        rates = rng.random((num_states, num_states)) * (
            rng.random((num_states, num_states)) < 0.3
        )
        np.fill_diagonal(rates, 0.0)
        rates[0, 1] = max(rates[0, 1], 0.25)  # guarantee a transition
        label_sets = {
            f"ap{index}": np.flatnonzero(
                rng.integers(0, 2, size=num_states).astype(bool)
            )
            for index in range(labels)
        }
        return CTMC(rates, {0: 1.0}, labels=label_sets)

    def test_matches_reference_on_symmetric_chain(self):
        chain = symmetric_two_component_chain()
        assert lumping_partition(chain).tolist() == lumping_partition_reference(chain)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("num_states", [5, 17, 40])
    def test_matches_reference_on_random_chains(self, num_states, seed):
        chain = self.random_labelled_chain(num_states, seed)
        assert lumping_partition(chain).tolist() == lumping_partition_reference(chain)

    @pytest.mark.parametrize("respect_initial", [False, True])
    def test_matches_reference_with_initial_splitting(self, respect_initial):
        chain = self.random_labelled_chain(23, seed=7)
        spread = chain.with_initial_distribution(
            np.linspace(1.0, 2.0, 23) / np.linspace(1.0, 2.0, 23).sum()
        )
        assert lumping_partition(
            spread, respect_initial=respect_initial
        ).tolist() == lumping_partition_reference(spread, respect_initial=respect_initial)

    def test_matches_reference_on_a_replicated_symmetric_chain(self):
        # A chain with large lumpable blocks: many exchangeable components.
        lam, mu, n = 0.2, 1.5, 6
        size = 2**n
        rates = np.zeros((size, size))
        for state in range(size):
            for bit in range(n):
                other = state ^ (1 << bit)
                rates[state, other] = lam if state < other else mu
        down_count = np.array([bin(s).count("1") for s in range(size)])
        chain = CTMC(
            rates,
            {0: 1.0},
            labels={"all_up": [0], "degraded": np.flatnonzero(down_count >= n - 1)},
        )
        vectorized = lumping_partition(chain)
        assert vectorized.tolist() == lumping_partition_reference(chain)
        # the exchangeable structure must actually collapse the state space
        assert count_blocks(vectorized) < size

    def test_unlabelled_chain_collapses_to_rate_classes(self):
        chain = self.random_labelled_chain(12, seed=11, labels=0)
        assert lumping_partition(chain).tolist() == lumping_partition_reference(chain)


#: Rates of the generated chains: few distinct values, so sums tie often.
TIED_RATES = (0.5, 1.0, 2.0)


@st.composite
def tied_chains(draw) -> CTMC:
    """Small labelled CTMCs with many rate ties.

    States fall into up to three classes, and every state of class ``c``
    moves to one (random) member of class ``d`` at the class-level rate
    ``r[c][d]``, so the class partition is nearly lumpable; a few extra
    transitions then break some of the symmetry.  The chains carry 0–3
    labels (class-aligned or arbitrary) and an initial distribution with
    ties.
    """
    num_states = draw(st.integers(1, 9))
    num_classes = draw(st.integers(1, 3))
    classes = draw(
        st.lists(st.integers(0, num_classes - 1), min_size=num_states, max_size=num_states)
    )
    class_rates = draw(
        st.lists(
            st.sampled_from((0.0,) + TIED_RATES),
            min_size=num_classes * num_classes,
            max_size=num_classes * num_classes,
        )
    )
    rates = np.zeros((num_states, num_states))
    for state in range(num_states):
        for target_class in range(num_classes):
            members = [
                other
                for other in range(num_states)
                if classes[other] == target_class and other != state
            ]
            if members:
                target = draw(st.sampled_from(members))
                rates[state, target] += class_rates[classes[state] * num_classes + target_class]
    for source, target, rate in draw(
        st.lists(
            st.tuples(
                st.integers(0, num_states - 1),
                st.integers(0, num_states - 1),
                st.sampled_from(TIED_RATES),
            ),
            max_size=3,
        )
    ):
        if source != target:
            rates[source, target] += rate
    labels = {}
    for index in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            chosen = draw(st.lists(st.booleans(), min_size=num_classes, max_size=num_classes))
            mask = np.array([chosen[klass] for klass in classes])
        else:
            mask = np.array(
                draw(st.lists(st.booleans(), min_size=num_states, max_size=num_states))
            )
        labels[f"ap{index}"] = mask
    weights = np.array(
        draw(st.lists(st.sampled_from((1.0, 2.0)), min_size=num_states, max_size=num_states))
    )
    return CTMC(rates, weights / weights.sum(), labels=labels)


def first_members(partition: np.ndarray) -> np.ndarray:
    return np.unique(partition, return_index=True)[1]


class TestLumpingProperties:
    """Invariants the planner's one-quotient-per-chain design rests on."""

    @given(
        blocks=st.lists(st.integers(0, 5), min_size=0, max_size=40), data=st.data()
    )
    @settings(max_examples=200, deadline=None)
    def test_block_representatives_are_each_blocks_first_state(self, blocks, data):
        # The drawn blocks numbered 0..B-1 first-seen (the sort-free pass)
        # and in a random order (recognised and sorted).
        first_seen = lumping.first_seen_ids(np.array(blocks, dtype=np.int64).reshape(-1, 1))
        order = np.array(data.draw(st.permutations(range(len(set(blocks))))), dtype=np.int64)
        for partition in (first_seen, order[first_seen]):
            assert np.array_equal(
                lumping.block_representatives(partition), first_members(partition)
            )

    @given(chain=tied_chains(), respect_initial=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_array_refinement_equals_the_reference(self, chain, respect_initial):
        assert lumping_partition(
            chain, respect_initial=respect_initial
        ).tolist() == lumping_partition_reference(chain, respect_initial=respect_initial)

    @given(chain=tied_chains(), respect_initial=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_a_forced_key_collision_rehashes_to_the_reference(self, chain, respect_initial):
        # Every key collides under salt 0: only the exact check against each
        # class's first member can tell the signatures apart, and a round
        # where they differ must re-hash under salt 1.
        salts = []
        keys = lumping._signature_keys

        def colliding(*args):
            salts.append(args[-1])
            real = keys(*args)
            return np.zeros_like(real) if args[-1] == 0 else real

        with mock.patch.object(lumping, "_signature_keys", colliding):
            partition = lumping_partition(chain, respect_initial=respect_initial)
        reference = lumping_partition_reference(chain, respect_initial=respect_initial)
        assert partition.tolist() == reference
        assert set(salts) == ({0, 1} if count_blocks(reference) > 1 else {0})

    @given(chain=tied_chains(), respect_initial=st.booleans(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_observables_seed_like_labels_of_their_joint_classes(
        self, chain, respect_initial, data
    ):
        size = chain.num_states
        observables = [
            np.array(
                data.draw(
                    st.lists(
                        st.sampled_from((0.0, -0.0, 1.0, 2.5, np.nan, -np.nan)),
                        min_size=size,
                        max_size=size,
                    )
                )
            )
            for _ in range(data.draw(st.integers(1, 3)))
        ]
        # Joint value classes as np.unique forms them: -0.0 equals 0.0 and
        # every NaN equals every other NaN.
        classes = np.zeros(size, dtype=np.int64)
        for vector in observables:
            _, values = np.unique(vector, return_inverse=True)
            _, classes = np.unique(
                classes * (int(values.max()) + 1) + values, return_inverse=True
            )
        labels = {name: chain.label_mask(name) for name in chain.label_names}
        labels.update({f"class{value}": classes == value for value in set(classes.tolist())})
        relabelled = CTMC(chain.rate_matrix, chain.initial_distribution, labels=labels)
        assert lumping_partition(
            chain, respect_initial=respect_initial, observables=observables
        ).tolist() == lumping_partition_reference(relabelled, respect_initial=respect_initial)

    @given(chain=tied_chains(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_absorbing_a_union_of_blocks_commutes_with_the_quotient(self, chain, data):
        partition = np.asarray(lumping_partition(chain))
        num_blocks = int(partition.max()) + 1
        chosen = np.array(
            data.draw(st.lists(st.booleans(), min_size=num_blocks, max_size=num_blocks))
        )
        absorbed = chain.make_absorbing(chosen[partition])
        # The partition stays ordinarily lumpable for the absorbed chain ...
        indicator = np.eye(num_blocks)[partition]
        block_rates = absorbed.rate_matrix.toarray() @ indicator
        np.testing.assert_allclose(
            block_rates, block_rates[first_members(partition)][partition], atol=1e-12
        )
        # ... and its quotient is the quotient with the projected mask absorbed.
        quotient_of_absorbed, _ = lump_ctmc(absorbed, partition.tolist())
        absorbed_quotient = lump_ctmc(chain, partition.tolist())[0].make_absorbing(chosen)
        np.testing.assert_allclose(
            quotient_of_absorbed.rate_matrix.toarray(),
            absorbed_quotient.rate_matrix.toarray(),
            rtol=0.0,
            atol=1e-12,
        )

    @given(chain=tied_chains(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_merging_absorbed_blocks_keeps_the_quotient_exact(self, chain, data):
        labels = [chain.label_mask(name).astype(float) for name in chain.label_names]
        lumped = planner._build_quotient(chain, labels)
        assume(lumped is not None)
        num_blocks = lumped.num_blocks
        chosen = np.array(
            data.draw(st.lists(st.booleans(), min_size=num_blocks, max_size=num_blocks))
        )
        observed = np.array(
            data.draw(
                st.lists(st.sampled_from((0.0, 1.0)), min_size=num_blocks, max_size=num_blocks)
            )
        )
        mask, observable = chosen[lumped.partition], observed[lumped.partition]
        artifacts = ArtifactCache()
        merged = lumped.absorbed(mask, [observable], artifacts)
        # Absorbed blocks merge per observable value; the others stay apart.
        assert merged.num_blocks == int((~chosen).sum()) + len(set(observed[chosen]))
        assert merged.is_block_constant(observable) and merged.is_block_constant(mask)
        # The merged partition is lumpable for the absorbed chain, and its
        # quotient is the absorbed chain's quotient under that partition.
        absorbed = chain.make_absorbing(mask)
        block_rates = absorbed.rate_matrix.toarray() @ np.eye(merged.num_blocks)[merged.partition]
        np.testing.assert_allclose(
            block_rates, block_rates[merged.representatives][merged.partition], atol=1e-12
        )
        expected, _ = lump_ctmc(absorbed, merged.partition.tolist())
        np.testing.assert_allclose(
            merged.quotient.rate_matrix.toarray(),
            expected.rate_matrix.toarray(),
            rtol=0.0,
            atol=1e-12,
        )
        assert lumped.absorbed(mask, [observable, observable], artifacts) is merged

    @given(chain=tied_chains(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_refining_the_chain_partition_equals_refining_from_scratch(self, chain, data):
        size = chain.num_states
        observables = [
            np.array(
                data.draw(
                    st.lists(st.sampled_from((0.0, 1.0, 2.5)), min_size=size, max_size=size)
                )
            )
            for _ in range(data.draw(st.integers(1, 2)))
        ]
        labels = [chain.label_mask(name).astype(float) for name in chain.label_names]
        chain_partition = np.asarray(lumping_partition(chain), dtype=float)
        from_cache = planner._build_quotient(chain, [chain_partition, *observables])
        from_scratch = planner._build_quotient(chain, [*labels, *observables])
        assert (from_cache is None) == (from_scratch is None)
        if from_cache is not None:
            np.testing.assert_array_equal(from_cache.partition, from_scratch.partition)

    @given(chain=tied_chains(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_unaligned_rewards_refine_further_and_match_unlumped(self, chain, data):
        partition = np.asarray(lumping_partition(chain))
        sizes = np.bincount(partition)
        assume(sizes.max() >= 2)
        size = chain.num_states
        rewards = np.array(
            data.draw(st.lists(st.sampled_from((0.0, 1.0, 3.0)), min_size=size, max_size=size))
        )
        split = np.flatnonzero(partition == int(np.argmax(sizes)))
        rewards[split[0]] = rewards[split[1]] + 1.0  # not constant on that block

        def run(lump: bool) -> list[np.ndarray]:
            # The quotient uniformizes at its own rate, so each side carries
            # its own truncation error: keep both well below the tolerance.
            session = AnalysisSession(lump=lump, epsilon=1e-14)
            for kind in (MeasureKind.INSTANTANEOUS_REWARD, MeasureKind.CUMULATIVE_REWARD):
                session.request(chain, (0.0, 0.7, 3.0), kind=kind, rewards=rewards)
            return [result.values for result in session.execute()]

        with mock.patch.object(
            planner, "lumping_partition", wraps=planner.lumping_partition
        ) as partitions:
            lumped = run(lump=True)
        assert partitions.call_count == 2  # the chain partition, then one refinement
        for lumped_values, plain_values in zip(lumped, run(lump=False)):
            np.testing.assert_allclose(lumped_values, plain_values, rtol=0.0, atol=1e-12)


class TestDTMC:
    def test_row_sums_validated(self):
        with pytest.raises(Exception):
            DTMC(np.array([[0.5, 0.7], [0.0, 1.0]]))

    def test_step(self):
        dtmc = DTMC(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1.0, 0.0]))
        after_one = dtmc.step(dtmc.initial_distribution)
        assert after_one == pytest.approx([0.0, 1.0])
        after_two = dtmc.step(dtmc.initial_distribution, steps=2)
        assert after_two == pytest.approx([1.0, 0.0])

    def test_reachability_probabilities(self):
        # Gambler-style chain: from state 1, reach 2 before 0 with prob 0.5.
        matrix = np.array(
            [
                [1.0, 0.0, 0.0],
                [0.5, 0.0, 0.5],
                [0.0, 0.0, 1.0],
            ]
        )
        dtmc = DTMC(matrix)
        probabilities = dtmc.reachability_probabilities([2])
        assert probabilities[1] == pytest.approx(0.5)
        assert probabilities[0] == pytest.approx(0.0)

    def test_embedded_dtmc_of_ctmc(self, absorbing_chain):
        jump = embedded_dtmc(absorbing_chain)
        matrix = jump.transition_matrix.toarray()
        assert matrix[0] == pytest.approx([0.0, 1.0, 0.0])
        assert matrix[2] == pytest.approx([0.0, 0.0, 1.0])  # absorbing self-loop

    def test_uniformized_dtmc(self, two_state_chain):
        dtmc, rate = uniformized_dtmc(two_state_chain)
        assert rate == pytest.approx(0.5)
        assert np.asarray(dtmc.transition_matrix.sum(axis=1)).ravel() == pytest.approx([1.0, 1.0])

    def test_unbounded_reachability_on_ctmc(self, absorbing_chain):
        probabilities = unbounded_reachability(absorbing_chain, "failed")
        assert probabilities == pytest.approx([1.0, 1.0, 1.0])
        restricted = unbounded_reachability(absorbing_chain, "failed", safe=[0])
        assert restricted[0] == pytest.approx(0.0)
