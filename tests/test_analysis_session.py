"""Tests for the batched analysis-session API (`repro.analysis`).

Covers the planner's grouping rules (what may and may not share a sweep),
the executor's batching axes (initial distributions, reward columns), the
sweep-count acceptance criterion on the paper's Figure 4/5 family, the
lumped quotient path, and the CLI's figure-pair deduplication.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.service
from repro.analysis import (
    AnalysisSession,
    MeasureKind,
    MeasureRequest,
    SessionStats,
    build_plan,
    execute_plan,
)
from repro.analysis.executor import backward_values
from repro.casestudy import experiments as exp
from repro.casestudy.facility import (
    DISASTER_1,
    DISASTER_2,
    LINE2,
    PAPER_STRATEGIES,
)
from repro.cli import main, run_experiments
from repro.ctmc import CTMC
from repro.ctmc.artifacts import ArtifactCache
from repro.ctmc.ctmc import CTMCError
from repro.ctmc.engines import sweep_engine
from repro.ctmc.rewards import cumulative_reward_curve, instantaneous_reward_curve
from repro.ctmc.transient import time_bounded_reachability, transient_distributions
from repro.ctmc.uniformization import evaluate_grid_block
from repro.measures import survivability, survivability_request
from repro.measures.costs import accumulated_cost_request, instantaneous_cost_request
from repro.service.registry import (
    LINE1_SURVIVABILITY_STRATEGIES,
    ScenarioRegistry,
    paper_registry,
)


def random_chain(num_states: int, seed: int, density: float = 0.35) -> CTMC:
    rng = np.random.default_rng(seed)
    rates = rng.random((num_states, num_states)) * (
        rng.random((num_states, num_states)) < density
    )
    rates[0, 1] = 0.5  # make sure the chain has at least one transition
    np.fill_diagonal(rates, 0.0)
    initial = rng.random(num_states)
    return CTMC(
        rates,
        initial / initial.sum(),
        labels={"target": [num_states - 1], "bad": [0]},
    )


GRID = [0.0, 0.5, 2.0, 0.5, 5.0]


# ---------------------------------------------------------------------------
# planner grouping rules
# ---------------------------------------------------------------------------
class TestPlannerGrouping:
    def test_same_chain_same_grid_share_one_group(self):
        chain = random_chain(8, seed=0)
        rewards = np.arange(8.0)
        session = AnalysisSession()
        session.request(chain, GRID, kind=MeasureKind.TRANSIENT)
        session.request(chain, GRID, kind=MeasureKind.INSTANTANEOUS_REWARD, rewards=rewards)
        session.request(chain, GRID, kind=MeasureKind.CUMULATIVE_REWARD, rewards=rewards)
        plan = session.plan()
        assert plan.num_groups == 1
        assert len(plan.groups[0].members) == 3

    def test_duplicate_grid_objects_are_merged(self):
        chain = random_chain(8, seed=1)
        session = AnalysisSession()
        session.request(chain, np.linspace(0.0, 4.0, 9), kind=MeasureKind.TRANSIENT)
        session.request(chain, np.linspace(0.0, 4.0, 9), kind=MeasureKind.TRANSIENT)
        assert session.plan().num_groups == 1

    def test_different_grids_never_merge(self):
        chain = random_chain(8, seed=2)
        session = AnalysisSession()
        session.request(chain, [1.0, 2.0], kind=MeasureKind.TRANSIENT)
        session.request(chain, [1.0, 2.5], kind=MeasureKind.TRANSIENT)
        assert session.plan().num_groups == 2

    def test_different_chains_never_merge(self):
        session = AnalysisSession()
        session.request(random_chain(8, seed=3), GRID, kind=MeasureKind.TRANSIENT)
        session.request(random_chain(8, seed=4), GRID, kind=MeasureKind.TRANSIENT)
        assert session.plan().num_groups == 2

    def test_different_epsilon_never_merges(self):
        chain = random_chain(8, seed=5)
        session = AnalysisSession()
        session.request(chain, GRID, kind=MeasureKind.TRANSIENT, epsilon=1e-8)
        session.request(chain, GRID, kind=MeasureKind.TRANSIENT, epsilon=1e-12)
        assert session.plan().num_groups == 2

    def test_different_targets_never_merge(self):
        # Different target sets induce different absorbing transforms, hence
        # different operating chains (and typically different rates).
        chain = random_chain(8, seed=6)
        session = AnalysisSession()
        session.request(chain, GRID, kind=MeasureKind.REACHABILITY, target="target")
        session.request(chain, GRID, kind=MeasureKind.REACHABILITY, target="bad")
        assert session.plan().num_groups == 2

    def test_equal_targets_share_transform_and_group(self):
        chain = random_chain(8, seed=7)
        session = AnalysisSession()
        session.request(chain, GRID, kind=MeasureKind.REACHABILITY, target="target")
        session.request(chain, GRID, kind=MeasureKind.REACHABILITY, target=[7])
        assert session.plan().num_groups == 1

    def test_equal_content_copies_share_one_group(self):
        # Groups key on the chain's content fingerprint, not object identity:
        # an unpickled copy (what a shard worker holds) and a copy started
        # elsewhere merge with the original into one sweep.
        chain = random_chain(8, seed=10)
        members = [
            chain,
            pickle.loads(pickle.dumps(chain)),
            chain.with_initial_distribution({2: 1.0}),
        ]
        reachability = dict(kind=MeasureKind.REACHABILITY, target="target")
        session = AnalysisSession()
        for member in members:
            session.request(member, GRID, **reachability)
        assert session.plan().num_groups == 1
        results = session.execute()
        assert session.stats.sweeps == 1
        for member, result in zip(members, results):
            alone = AnalysisSession()
            alone.request(member, GRID, **reachability)
            np.testing.assert_allclose(
                result.values, alone.execute()[0].values, rtol=0.0, atol=1e-12
            )
        # The copies really differ where it matters: their own initials.
        assert not np.allclose(results[0].values, results[2].values)

    def test_invalid_requests_are_rejected(self):
        chain = random_chain(6, seed=9)
        session = AnalysisSession()
        session.request(chain, [[1.0]], kind=MeasureKind.TRANSIENT)  # 2-D grid
        with pytest.raises(CTMCError):
            session.plan()
        session = AnalysisSession()
        session.request(chain, [-1.0], kind=MeasureKind.TRANSIENT)
        with pytest.raises(CTMCError):
            session.plan()
        session = AnalysisSession()
        session.request(chain, [1.0], kind=MeasureKind.REACHABILITY)  # no target
        with pytest.raises(CTMCError):
            session.plan()
        session = AnalysisSession()
        session.request(
            chain, [0.5], kind=MeasureKind.INTERVAL_REACHABILITY,
            target="target", lower=1.0,  # grid point below the lower bound
        )
        with pytest.raises(CTMCError):
            session.plan()


# ---------------------------------------------------------------------------
# executor batching axes
# ---------------------------------------------------------------------------
class TestExecutorBatching:
    def test_permuted_initial_blocks_round_trip(self):
        chain = random_chain(9, seed=10)
        rng = np.random.default_rng(11)
        initials = rng.random((3, 9))
        initials /= initials.sum(axis=1, keepdims=True)

        session = AnalysisSession()
        forward = session.request(
            chain, GRID, kind=MeasureKind.REACHABILITY, target="target",
            initial_distributions=initials,
        )
        backward = session.request(
            chain, GRID, kind=MeasureKind.REACHABILITY, target="target",
            initial_distributions=initials[::-1].copy(),
        )
        plan = session.plan()
        assert plan.num_groups == 1
        results = session.execute()
        # one sweep served both requests; rows must come back in request order
        assert results[forward].group_index == results[backward].group_index
        references = [
            time_bounded_reachability(
                chain, "target", GRID, initial_distribution=initials[i]
            )
            for i in range(3)
        ]
        for i in range(3):
            np.testing.assert_allclose(
                results[forward].values[i], references[i], atol=1e-12
            )
            np.testing.assert_allclose(
                results[backward].values[i], references[2 - i], atol=1e-12
            )

    def test_duplicate_initials_are_deduplicated_but_results_complete(self):
        chain = random_chain(7, seed=12)
        pi0 = chain.initial_distribution
        block = np.stack([pi0, pi0, pi0])
        session = AnalysisSession()
        index = session.request(
            chain, GRID, kind=MeasureKind.TRANSIENT, initial_distributions=block
        )
        result = session.execute()[index]
        assert result.values.shape == (3, len(GRID), 7)
        reference = transient_distributions(chain, GRID)
        for row in range(3):
            np.testing.assert_allclose(result.values[row], reference, atol=1e-12)

    def test_mixed_kinds_share_one_sweep(self):
        chain = random_chain(10, seed=13)
        rewards = np.arange(10.0)
        stats = SessionStats()
        session = AnalysisSession(stats=stats)
        transient = session.request(chain, GRID, kind=MeasureKind.TRANSIENT)
        instantaneous = session.request(
            chain, GRID, kind=MeasureKind.INSTANTANEOUS_REWARD, rewards=rewards
        )
        cumulative = session.request(
            chain, GRID, kind=MeasureKind.CUMULATIVE_REWARD, rewards=rewards
        )
        results = session.execute()
        assert stats.groups == 1
        assert stats.sweeps == 1
        np.testing.assert_allclose(
            results[transient].squeezed, transient_distributions(chain, GRID), atol=1e-12
        )
        np.testing.assert_allclose(
            results[instantaneous].squeezed,
            instantaneous_reward_curve((chain, rewards), GRID),
            atol=1e-12,
        )
        np.testing.assert_allclose(
            results[cumulative].squeezed,
            cumulative_reward_curve((chain, rewards), GRID),
            atol=1e-12,
        )

    def test_interval_until_lower_zero_is_plain_bounded_until(self):
        # U[0, t] must equal U<=t, including the CSL edge where the initial
        # state satisfies the target but not the safe formula: the path wins
        # immediately, it is not "blocked".
        chain = CTMC(
            np.array([[0.0, 1.0], [0.0, 0.0]]),
            {0: 1.0},
            labels={"goal": [0], "ok": [1]},
        )
        session = AnalysisSession()
        interval = session.request(
            chain, [1.0], kind=MeasureKind.INTERVAL_REACHABILITY,
            target="goal", safe="ok", lower=0.0,
        )
        plain = session.request(
            chain, [1.0], kind=MeasureKind.REACHABILITY, target="goal", safe="ok",
        )
        results = session.execute()
        assert results[interval].squeezed[0] == pytest.approx(1.0)
        assert results[interval].squeezed[0] == results[plain].squeezed[0]
        # both were even planned into the same group
        assert results[interval].group_index == results[plain].group_index

    def test_interval_until_matches_backward_recursion(self):
        from repro.csl.checker import ModelChecker
        from repro.csl.parser import parse_formula

        chain = random_chain(9, seed=14)
        checker = ModelChecker(chain)
        session = AnalysisSession()
        index = session.request(
            chain, [1.0, 2.5], kind=MeasureKind.INTERVAL_REACHABILITY,
            target="target", lower=0.5,
        )
        values = session.execute()[index].squeezed
        for time, value in zip([1.0, 2.5], values):
            formula = parse_formula(f'P=? [ true U[0.5,{time}] "target" ]')
            per_state = checker.check_states(formula)
            reference = float(chain.initial_distribution @ per_state)
            assert value == pytest.approx(reference, abs=1e-10)

    def test_interval_groups_share_phases_across_grids(self):
        # Interval groups with equal (safe, target, lower) but different
        # grids are bundled: one backward sweep over the union of horizons
        # plus one forward sweep — 2 sweeps total instead of 2 per grid.
        chain = random_chain(9, seed=16)
        grids = ([1.0, 2.5], [1.5, 3.0, 4.0], [0.75])
        stats = SessionStats()
        session = AnalysisSession(stats=stats)
        indices = [
            session.request(
                chain, grid, kind=MeasureKind.INTERVAL_REACHABILITY,
                target="target", lower=0.5,
            )
            for grid in grids
        ]
        results = session.execute()
        assert stats.groups == len(grids)  # still one group per grid
        assert stats.sweeps == 2  # ... but the phases are shared
        for grid, index in zip(grids, indices):
            single = AnalysisSession()
            single_index = single.request(
                chain, grid, kind=MeasureKind.INTERVAL_REACHABILITY,
                target="target", lower=0.5,
            )
            np.testing.assert_allclose(
                results[index].squeezed,
                single.execute()[single_index].squeezed,
                atol=1e-12,
            )

    def test_interval_groups_with_different_signatures_do_not_bundle(self):
        chain = random_chain(9, seed=17)
        stats = SessionStats()
        session = AnalysisSession(stats=stats)
        session.request(
            chain, [1.0], kind=MeasureKind.INTERVAL_REACHABILITY,
            target="target", lower=0.5,
        )
        session.request(  # different lower bound: its own backward phase
            chain, [1.5], kind=MeasureKind.INTERVAL_REACHABILITY,
            target="target", lower=0.75,
        )
        session.execute()
        assert stats.groups == 2
        assert stats.sweeps == 4


# ---------------------------------------------------------------------------
# acceptance: the Figure 4/5 family costs one sweep per (chain, rate, grid)
# ---------------------------------------------------------------------------
class TestFigureFamilies:
    def test_fig4_5_family_one_sweep_per_group(self):
        stats = SessionStats()
        results = run_experiments(["fig4", "fig5"], points=9, lump=False, stats=stats)
        figure4, figure5 = results["fig4"], results["fig5"]
        # 3 strategies x 2 service intervals = 6 distinct transformed chains;
        # the whole family must cost exactly one sweep per group.
        assert stats.requests == 6
        assert stats.groups == 6
        assert stats.sweeps == stats.groups
        # and the batched values must agree with the per-call legacy API
        times = figure4.times
        for interval_index, figure in ((0, figure4), (1, figure5)):
            threshold = exp.line_service_interval_lower("line1", interval_index)
            for configuration in LINE1_SURVIVABILITY_STRATEGIES:
                space = exp.line_state_space("line1", configuration)
                legacy = survivability(space, DISASTER_1, threshold, times)
                np.testing.assert_allclose(
                    figure.series[configuration.label], legacy, atol=1e-12
                )

    def test_multi_disaster_requests_share_one_sweep(self):
        # Line 2 defines two disasters; curves for both on one strategy and
        # service level differ only in the initial distribution and must be
        # planned into a single group (one sweep, two batched initials).
        configuration = PAPER_STRATEGIES[0]
        space = exp.line_state_space(LINE2, configuration)
        threshold = exp.line_service_interval_lower(LINE2, 0)
        times = np.linspace(0.0, 40.0, 9)
        stats = SessionStats()
        session = AnalysisSession(stats=stats)
        indices = {
            disaster: session.add(
                survivability_request(space, disaster, threshold, times, tag=disaster)
            )
            for disaster in (DISASTER_1, DISASTER_2)
        }
        results = session.execute()
        assert stats.groups == 1
        assert stats.sweeps == 1
        for disaster, index in indices.items():
            legacy = survivability(space, disaster, threshold, times)
            np.testing.assert_allclose(results[index].squeezed, legacy, atol=1e-12)


# ---------------------------------------------------------------------------
# lumped quotients preserve the case-study measures
# ---------------------------------------------------------------------------
class TestLumpedSessions:
    @pytest.mark.parametrize("configuration", PAPER_STRATEGIES[:3], ids=lambda c: c.label)
    def test_lumped_survivability_matches_unlumped(self, configuration):
        space = exp.line_state_space(LINE2, configuration)
        threshold = exp.line_service_interval_lower(LINE2, 0)
        times = np.linspace(0.0, 50.0, 11)

        curves = {}
        lumped_states = {}
        for lump in (False, True):
            session = AnalysisSession(lump=lump, epsilon=1e-14)
            indices = [
                session.add(
                    survivability_request(space, disaster, threshold, times)
                )
                for disaster in (DISASTER_1, DISASTER_2)
            ]
            results = session.execute()
            curves[lump] = [results[i].squeezed for i in indices]
            lumped_states[lump] = results[indices[0]].lumped_states
        assert lumped_states[False] is None
        assert lumped_states[True] is not None
        assert lumped_states[True] < space.chain.num_states
        for unlumped, lumped in zip(curves[False], curves[True]):
            np.testing.assert_allclose(lumped, unlumped, atol=1e-12)

    def test_lumped_cost_curves_match_unlumped(self):
        configuration = PAPER_STRATEGIES[2]
        space = exp.line_state_space(LINE2, configuration)
        times = np.linspace(0.0, 30.0, 9)
        values = {}
        for lump in (False, True):
            session = AnalysisSession(lump=lump, epsilon=1e-14)
            instantaneous = session.add(
                instantaneous_cost_request(space, times, DISASTER_2)
            )
            accumulated = session.add(
                accumulated_cost_request(space, times, DISASTER_2)
            )
            results = session.execute()
            values[lump] = (
                results[instantaneous].squeezed,
                results[accumulated].squeezed,
            )
        np.testing.assert_allclose(values[True][0], values[False][0], atol=1e-12)
        np.testing.assert_allclose(values[True][1], values[False][1], atol=1e-12)

    def test_transient_groups_are_never_lumped(self):
        chain = random_chain(8, seed=15)
        session = AnalysisSession(lump=True)
        index = session.request(chain, GRID, kind=MeasureKind.TRANSIENT)
        result = session.execute()[index]
        assert result.lumped_states is None
        np.testing.assert_allclose(
            result.squeezed, transient_distributions(chain, GRID), atol=1e-12
        )

    def test_interval_and_longrun_groups_run_on_quotients(self):
        # The PR 10 coverage: interval-until bundles and long-run groups
        # report quotient state counts, and their lumped values match the
        # unlumped path exactly.
        space = exp.line_state_space(LINE2, PAPER_STRATEGIES[0])
        chain = space.chain
        target = space.states_with_service_at_least(
            exp.line_service_interval_lower(LINE2, 0)
        )
        times = np.linspace(2.0, 20.0, 7)
        values = {}
        blocks = {}
        for lump in (False, True):
            session = AnalysisSession(lump=lump, epsilon=1e-14)
            interval = session.request(
                chain, times, kind=MeasureKind.INTERVAL_REACHABILITY,
                target=target, lower=2.0,
            )
            steady = session.request(
                chain, (), kind=MeasureKind.STEADY_STATE, target=target
            )
            results = session.execute()
            values[lump] = (results[interval].squeezed, results[steady].squeezed)
            blocks[lump] = (
                results[interval].lumped_states,
                results[steady].lumped_states,
            )
        assert blocks[False] == (None, None)
        assert blocks[True][0] is not None and blocks[True][0] < chain.num_states
        assert blocks[True][1] is not None and blocks[True][1] < chain.num_states
        np.testing.assert_allclose(values[True][0], values[False][0], atol=1e-12)
        np.testing.assert_allclose(values[True][1], values[False][1], atol=1e-12)

    def test_registry_session_partitions_each_chain_once(self, monkeypatch):
        from repro.analysis import planner
        from repro.service import paper_registry

        registry = paper_registry()
        requests = [
            request for name in registry.names for request in registry.expand(name)
        ]
        chains = {request.chain.content_key for request in requests}
        assert (len(requests), len(chains)) == (42, 12)
        partition = planner.lumping_partition
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return partition(*args, **kwargs)

        monkeypatch.setattr(planner, "lumping_partition", counted)
        session = AnalysisSession(lump=True)
        session.extend(requests)
        results = session.execute()
        assert len(calls) == 12  # one per distinct chain, not one per group
        assert all(result.lumped_states is not None for result in results)


# ---------------------------------------------------------------------------
# lumped reachability groups: keyed without their absorbed chain
# ---------------------------------------------------------------------------
@st.composite
def chains_and_masks(draw) -> tuple[CTMC, np.ndarray]:
    """A small chain with arbitrary rates and an absorbing mask (all and none
    included)."""
    size = draw(st.integers(1, 7))
    rates = np.array(
        draw(
            st.lists(
                st.one_of(
                    st.just(0.0),
                    st.floats(1e-13, 50.0, allow_nan=False, allow_infinity=False),
                ),
                min_size=size * size,
                max_size=size * size,
            )
        )
    ).reshape(size, size)
    mask = draw(
        st.one_of(
            st.just([True] * size),
            st.just([False] * size),
            st.lists(st.booleans(), min_size=size, max_size=size),
        )
    )
    return CTMC(rates, np.full(size, 1.0 / size)), np.array(mask)


def reachability_plan(chain: CTMC, lump: bool, artifacts: ArtifactCache):
    requests = [
        MeasureRequest(chain=chain, times=GRID, kind=MeasureKind.REACHABILITY, target="target"),
        MeasureRequest(chain=chain, times=GRID, kind=MeasureKind.TRANSIENT),
    ]
    return build_plan(requests, lump=lump, artifacts=artifacts)


class TestLumpedGroupTransforms:
    @given(chain_and_mask=chains_and_masks())
    @settings(max_examples=200, deadline=None)
    def test_the_key_rate_is_the_absorbed_chains_rate_bit_for_bit(self, chain_and_mask):
        from repro.analysis.planner import absorbed_max_exit_rate

        chain, mask = chain_and_mask
        key = np.float64(absorbed_max_exit_rate(chain, mask))
        absorbed = np.float64(chain.make_absorbing(mask).max_exit_rate)
        assert key.tobytes() == absorbed.tobytes()

    def test_the_key_rate_on_a_paper_chain(self):
        from repro.analysis.planner import absorbed_max_exit_rate

        chain = exp.line_state_space(LINE2, PAPER_STRATEGIES[1]).chain
        rng = np.random.default_rng(25)
        for density in (0.0, 0.01, 0.5, 0.99, 1.0):
            mask = rng.random(chain.num_states) < density
            assert absorbed_max_exit_rate(chain, mask) == (
                chain.make_absorbing(mask).max_exit_rate
            )

    def test_a_cold_registry_session_builds_no_full_absorbed_chain(self, monkeypatch):
        registry = paper_registry()
        requests = [
            request for name in registry.names for request in registry.expand(name)
        ]
        full_sizes = {request.chain.num_states for request in requests}
        built = []
        transformed_chain = ArtifactCache.transformed_chain

        def recorded(self, base, absorbing_mask):
            chain = transformed_chain(self, base, absorbing_mask)
            built.append(chain.num_states)
            return chain

        monkeypatch.setattr(ArtifactCache, "transformed_chain", recorded)
        stats = SessionStats()
        session = AnalysisSession(lump=True, stats=stats)
        session.extend(requests)
        session.execute()
        assert built and not full_sizes & set(built)
        assert stats.lumped_groups == 42
        assert stats.lumped_states_before == 464_896
        assert stats.lumped_states_after == 4_696

    def _assert_unlumped_groups_sweep_the_absorbed_chain(self, chain, lumped_plan):
        reachability, transient = lumped_plan.groups
        assert reachability.lumped is None and transient.lumped is None
        assert transient.chain is chain
        expected = chain.make_absorbing(reachability.absorbing).rate_matrix
        assert (reachability.chain.rate_matrix != expected).nnz == 0

    def _assert_equal_to_unlumped(self, chain, lumped_plan, artifacts):
        plain = reachability_plan(chain, lump=False, artifacts=ArtifactCache())
        lumped_values = execute_plan(lumped_plan, artifacts=artifacts)
        plain_values = execute_plan(plain, artifacts=ArtifactCache())
        for lumped, unlumped in zip(lumped_values, plain_values):
            assert lumped.lumped_states is None
            np.testing.assert_array_equal(lumped.values, unlumped.values)

    def test_a_chain_that_does_not_collapse_sweeps_its_absorbed_chain(self):
        chain = random_chain(8, seed=31)
        cache = ArtifactCache()
        plan = reachability_plan(chain, lump=True, artifacts=cache)
        self._assert_unlumped_groups_sweep_the_absorbed_chain(chain, plan)
        self._assert_equal_to_unlumped(chain, plan, cache)

    def test_a_tombstoned_build_sweeps_its_absorbed_chain(self, monkeypatch):
        from repro.analysis import planner

        def exploding_build(chain, observables):
            raise ValueError("refinement exploded")

        monkeypatch.setattr(planner, "_build_quotient", exploding_build)
        space = exp.line_state_space(LINE2, PAPER_STRATEGIES[0])
        target = space.states_with_service_at_least(exp.line_service_interval_lower(LINE2, 0))
        chain = space.chain.restrict_labels(target=target)
        cache = ArtifactCache()
        with pytest.warns(RuntimeWarning, match="lumping failed"):
            cold = reachability_plan(chain, lump=True, artifacts=cache)
        warm = reachability_plan(chain, lump=True, artifacts=cache)  # tombstoned
        for plan in (cold, warm):
            self._assert_unlumped_groups_sweep_the_absorbed_chain(chain, plan)
            self._assert_equal_to_unlumped(chain, plan, cache)


# ---------------------------------------------------------------------------
# split invariance: results do not depend on how requests share a session
# ---------------------------------------------------------------------------
#: Rates of the generated chains: few distinct values, so lumping has ties.
TIED_RATES = (0.0, 0.0, 0.5, 1.0, 2.0)

#: Grids the generated requests pick from, so some of them share a sweep.
MIX_GRIDS = ((0.0, 0.5, 2.0), (1.0, 3.0), (0.25,))

MIX_KINDS = (
    MeasureKind.TRANSIENT,
    MeasureKind.REACHABILITY,
    MeasureKind.INTERVAL_REACHABILITY,
    MeasureKind.INSTANTANEOUS_REWARD,
    MeasureKind.CUMULATIVE_REWARD,
    MeasureKind.STEADY_STATE,
    MeasureKind.UNBOUNDED_REACHABILITY,
)


@st.composite
def request_mixes(draw) -> list[MeasureRequest]:
    """Up to nine requests of every session kind on one or two small chains."""
    chains = []
    for _ in range(draw(st.integers(1, 2))):
        size = draw(st.integers(2, 6))
        rates = np.array(
            draw(st.lists(st.sampled_from(TIED_RATES), min_size=size**2, max_size=size**2))
        ).reshape(size, size)
        rates[0, 1] = 1.0  # at least one transition
        np.fill_diagonal(rates, 0.0)
        masks = {
            name: draw(st.lists(st.booleans(), min_size=size, max_size=size))
            for name in ("target", "safe")
        }
        weights = np.array(
            draw(st.lists(st.sampled_from((1.0, 2.0)), min_size=size, max_size=size))
        )
        chains.append(CTMC(rates, weights / weights.sum(), labels=masks))
    requests = []
    # Variants of one measure on one chain share groups and bundles in a
    # session, which is where splitting the requests could change results.
    for _ in range(draw(st.integers(1, 3))):
        chain = draw(st.sampled_from(chains))
        kind = draw(st.sampled_from(MIX_KINDS))
        safe = draw(st.sampled_from((None, "safe")))
        for _ in range(draw(st.integers(1, 3))):
            fields = {"times": draw(st.sampled_from(MIX_GRIDS)), "kind": kind}
            if kind in (MeasureKind.INSTANTANEOUS_REWARD, MeasureKind.CUMULATIVE_REWARD):
                fields["rewards"] = draw(
                    st.lists(
                        st.sampled_from((0.0, 1.0, 3.0)),
                        min_size=chain.num_states,
                        max_size=chain.num_states,
                    )
                )
            elif kind is not MeasureKind.TRANSIENT:
                fields["target"] = "target"
                if kind is not MeasureKind.STEADY_STATE:
                    fields["safe"] = safe
            if kind is MeasureKind.INTERVAL_REACHABILITY:
                fields["times"] = draw(st.sampled_from(((1.0, 3.0), (1.0, 1.5, 4.0))))
                fields["lower"] = draw(st.sampled_from((0.5, 1.0)))
            if kind in (MeasureKind.STEADY_STATE, MeasureKind.UNBOUNDED_REACHABILITY):
                fields["times"] = ()
            requests.append(MeasureRequest(chain=chain, **fields))
    return requests


LONG_RUN_KINDS = (MeasureKind.STEADY_STATE, MeasureKind.UNBOUNDED_REACHABILITY)


def session_values(requests, lump: bool) -> list[np.ndarray]:
    session = AnalysisSession(lump=lump, epsilon=1e-14)
    session.extend(requests)
    return [result.values for result in session.execute()]


class TestSplitInvariance:
    @given(requests=request_mixes(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_one_session_equals_per_request_and_split_sessions(self, requests, data):
        split = data.draw(
            st.lists(st.booleans(), min_size=len(requests), max_size=len(requests))
        )
        for lump in (False, True):
            together = session_values(requests, lump)
            alone = [session_values([request], lump)[0] for request in requests]
            halves = {
                side: iter(
                    session_values(
                        [r for r, s in zip(requests, split) if s == side], lump
                    )
                )
                for side in (False, True)
            }
            parted = [next(halves[side]) for side in split]
            for values, single, half in zip(together, alone, parted):
                np.testing.assert_allclose(single, values, rtol=0.0, atol=1e-12)
                np.testing.assert_allclose(half, values, rtol=0.0, atol=1e-12)

    @given(requests=request_mixes(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_splitting_a_time_grid_keeps_its_values(self, requests, data):
        """One request on grid G agrees with requests on the parts of a
        random split of G.  Rows of a grid are folded together, so the
        agreement is to rounding, not bit for bit."""
        request = data.draw(
            st.sampled_from([r for r in requests if r.kind not in LONG_RUN_KINDS] or [None])
        )
        if request is None:
            return
        grid = data.draw(
            st.lists(st.integers(0, 160), min_size=2, max_size=14, unique=True)
        )
        grid = np.array(grid) / 8.0  # points 1/8 apart: no horizon merging
        if request.kind is MeasureKind.INTERVAL_REACHABILITY:
            grid = grid + request.lower
        part_of = np.array(
            data.draw(st.lists(st.integers(0, 2), min_size=grid.size, max_size=grid.size))
        )
        parts = [np.flatnonzero(part_of == part) for part in np.unique(part_of)]
        for lump in (False, True):
            whole = session_values([dataclasses.replace(request, times=grid)], lump)[0]
            pieces = session_values(
                [dataclasses.replace(request, times=grid[part]) for part in parts], lump
            )
            split = np.empty_like(whole)
            for part, values in zip(parts, pieces):
                split[:, part] = values
            np.testing.assert_allclose(split, whole, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("lump", [False, True], ids=["unlumped", "lumped"])
    def test_line2_families_in_one_session_equal_one_session_per_family(self, lump):
        registry = paper_registry()
        families = [registry.expand(name) for name in ("fig8_9", "fig10", "fig11")]
        per_family = [
            values for requests in families for values in session_values(requests, lump)
        ]
        together = session_values(
            [request for requests in families for request in requests], lump
        )
        assert len(together) == len(per_family) == 18
        for values, alone in zip(together, per_family):
            assert np.array_equal(values, alone)


# ---------------------------------------------------------------------------
# one artifact path: every session runs against an ArtifactCache
# ---------------------------------------------------------------------------
def twin_requests(requests: list[MeasureRequest]) -> list[MeasureRequest]:
    """The requests on twins of their chains: the same rates, hence the same
    fingerprints and cache keys, but complemented labels and a point mass on
    the last state as the initial distribution."""
    twins: dict[int, CTMC] = {}
    for request in requests:
        chain = request.chain
        if id(chain) not in twins:
            twins[id(chain)] = CTMC(
                chain.rate_matrix,
                {chain.num_states - 1: 1.0},
                labels={name: ~chain.label_mask(name) for name in chain.label_names},
            )
    return [dataclasses.replace(r, chain=twins[id(r.chain)]) for r in requests]


def cached_session_values(requests, lump: bool, artifacts) -> list[np.ndarray]:
    session = AnalysisSession(lump=lump, epsilon=1e-14, artifacts=artifacts)
    session.extend(requests)
    return [result.values for result in session.execute()]


class TestOneArtifactPath:
    @given(requests=request_mixes())
    @settings(max_examples=60, deadline=None)
    def test_no_fresh_and_shared_warm_caches_agree_exactly(self, requests):
        """No cache, a fresh cache and a cache other sessions warmed give the
        same bits: an artifact depends on nothing its key leaves out."""
        for lump in (False, True):
            shared = ArtifactCache()
            cached_session_values(twin_requests(requests), lump, shared)
            cached_session_values(requests, lump, shared)
            alone = cached_session_values(requests, lump, None)
            fresh = cached_session_values(requests, lump, ArtifactCache())
            warm = cached_session_values(requests, lump, shared)
            for values, fresh_values, warm_values in zip(alone, fresh, warm):
                assert np.array_equal(fresh_values, values)
                assert np.array_equal(warm_values, values)

    @pytest.mark.parametrize("lump", [False, True], ids=["unlumped", "lumped"])
    def test_a_session_without_a_cache_shares_its_own_artifacts(self, lump):
        session = AnalysisSession(lump=lump)
        session.extend(paper_registry().expand("fig8_9"))
        session.execute()
        assert session.artifacts.stats().kind("foxglynn").hits > 0

    def test_kernels_require_an_artifact_cache(self):
        chain = random_chain(6, seed=31)
        request = MeasureRequest(chain=chain, times=[1.0], kind=MeasureKind.TRANSIENT)
        plan = build_plan([request], artifacts=ArtifactCache())
        with pytest.raises(TypeError, match="artifacts"):
            build_plan([request])
        with pytest.raises(TypeError, match="artifacts"):
            execute_plan(plan)
        with pytest.raises(TypeError, match="artifacts"):
            evaluate_grid_block(chain, [1.0], chain.initial_distribution[None, :])
        with pytest.raises(TypeError, match="artifacts"):
            backward_values(chain, np.ones(6), [1.0], epsilon=1e-10)
        with pytest.raises(TypeError, match="artifacts"):
            sweep_engine(chain)

    def test_there_is_no_process_wide_cache(self):
        assert not hasattr(repro.service, "GLOBAL_ARTIFACTS")
        assert importlib.util.find_spec("repro.service.cache") is None
        assert repro.service.ArtifactCache is ArtifactCache


# ---------------------------------------------------------------------------
# degradation: failed quotient builds tombstone instead of re-failing
# ---------------------------------------------------------------------------
class TestQuotientTombstones:
    def _request(self, session, chain):
        return session.request(
            chain, GRID, kind=MeasureKind.REACHABILITY, target="target"
        )

    def test_failed_build_warns_and_counts_exactly_once(self, monkeypatch):
        from repro.analysis import planner
        from repro.service import ArtifactCache

        calls = {"builds": 0}

        def exploding_build(chain, observables):
            calls["builds"] += 1
            raise ValueError("refinement exploded")

        monkeypatch.setattr(planner, "_build_quotient", exploding_build)
        cache = ArtifactCache()
        chain = random_chain(9, seed=21)

        cold_stats = SessionStats()
        cold = AnalysisSession(lump=True, artifacts=cache, stats=cold_stats)
        cold_index = self._request(cold, chain)
        with pytest.warns(RuntimeWarning, match="lumping failed"):
            cold_results = cold.execute()
        assert cold_stats.lump_failures == 1
        assert calls["builds"] == 1
        assert cold_results[cold_index].lumped_states is None

        # Warm plan: the tombstone short-circuits the doomed refinement —
        # no rebuild attempt, no warning, no additional failure count.
        warm_stats = SessionStats()
        warm = AnalysisSession(lump=True, artifacts=cache, stats=warm_stats)
        warm_index = self._request(warm, chain)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            warm_results = warm.execute()
        assert not [w for w in caught if "lumping failed" in str(w.message)]
        assert calls["builds"] == 1
        assert warm_stats.lump_failures == 0
        assert warm_results[warm_index].lumped_states is None

        # Degradation stays exact: the full-chain sweep is the reference.
        reference = AnalysisSession()
        reference_index = self._request(reference, chain)
        np.testing.assert_allclose(
            warm_results[warm_index].squeezed,
            reference.execute()[reference_index].squeezed,
            atol=1e-12,
        )

    def test_successful_builds_are_unaffected(self):
        from repro.analysis.planner import QuotientTombstone, cached_quotient
        from repro.service import ArtifactCache

        cache = ArtifactCache()
        chain = random_chain(9, seed=22)
        target = np.zeros(9)
        target[-1] = 1.0
        first = cached_quotient(chain, [target], cache)
        again = cached_quotient(chain, [target], cache)
        assert not isinstance(first, QuotientTombstone)
        assert again is first  # cache hit returns the identical object

    def test_a_warm_chain_quotient_reads_no_labels(self, monkeypatch):
        from repro.analysis.planner import _chain_quotient

        cache = ArtifactCache()
        chain = exp.line_state_space(LINE2, PAPER_STRATEGIES[0]).chain
        first = _chain_quotient(chain, cache)
        read = []
        label_mask = CTMC.label_mask

        def counted(self, name):
            read.append(name)
            return label_mask(self, name)

        monkeypatch.setattr(CTMC, "label_mask", counted)
        assert _chain_quotient(chain, cache) is first
        assert first is not None and read == []


# ---------------------------------------------------------------------------
# interval horizons: 1-ULP grid noise must not spawn duplicate windows
# ---------------------------------------------------------------------------
class TestHorizonMerging:
    def test_merge_helper_clusters_ulp_noise_and_keeps_zeros(self):
        from repro.analysis.executor import _merge_close_horizons

        eps = np.finfo(float).eps
        grids = [
            np.array([0.0, 1.0, 2.0, 3.0]),
            np.array([0.0, 1.0 * (1.0 + eps), 2.0 * (1.0 - eps), 3.5]),
        ]
        representatives, cluster_of = _merge_close_horizons(grids)
        # 0.0, 1.0, 2.0, 3.0, 3.5 — the ULP-offset duplicates collapse.
        assert representatives.shape[0] == 5
        np.testing.assert_allclose(representatives, [0.0, 1.0, 2.0, 3.0, 3.5])
        assert representatives[0] == 0.0  # exact zero survives exactly
        # Every original horizon maps to a representative within tolerance.
        flat = np.concatenate(grids)
        np.testing.assert_allclose(representatives[cluster_of], flat, rtol=1e-12)
        # Genuinely distinct horizons are NOT merged.
        assert 3.0 in representatives and 3.5 in representatives

    def test_bundled_grids_with_float_noise_share_windows(self, monkeypatch):
        import repro.ctmc.artifacts as artifacts_module
        from repro.service import ArtifactCache

        built_rows = []
        build = artifacts_module.fox_glynn_table

        def recording_build(rates, epsilon):
            table = build(rates, epsilon)
            built_rows.append(table.num_rows)
            return table

        monkeypatch.setattr(artifacts_module, "fox_glynn_table", recording_build)
        chain = random_chain(12, seed=19)
        lower = 0.5
        eps = np.finfo(float).eps
        clean = lower + np.array([1.0, 2.0, 3.0, 4.0])
        noisy = clean * (1.0 + eps)  # `times - lower` now differs by ~1 ULP
        cache = ArtifactCache()
        session = AnalysisSession(artifacts=cache)
        indices = [
            session.request(
                chain, grid, kind=MeasureKind.INTERVAL_REACHABILITY,
                target="target", lower=lower,
            )
            for grid in (clean, noisy)
        ]
        results = session.execute()
        # Two Fox–Glynn tables: the backward grid, one row per *merged*
        # horizon (4), and the forward grid at t = lower (1 row); without
        # the tolerant merge the noisy grid would double the backward rows.
        assert cache.stats().kinds["foxglynn"].misses == 2
        assert sorted(built_rows) == [1, 4]
        np.testing.assert_allclose(
            results[indices[0]].squeezed, results[indices[1]].squeezed, atol=1e-12
        )


# ---------------------------------------------------------------------------
# CLI: paired figures run their family (and its session) exactly once
# ---------------------------------------------------------------------------
class TestCommandLineSessions:
    def _count_expansions(self, monkeypatch) -> list[str]:
        expanded = []
        expand = ScenarioRegistry.expand

        def counting(registry, name, points=None):
            expanded.append(name)
            return expand(registry, name, points=points)

        monkeypatch.setattr(ScenarioRegistry, "expand", counting)
        return expanded

    def test_fig4_fig5_share_one_family_computation(self, capsys, monkeypatch):
        expanded = self._count_expansions(monkeypatch)
        assert main(["fig4", "fig5", "--points", "5", "--no-plot"]) == 0
        assert expanded == ["fig4_5"]
        out = capsys.readouterr().out
        assert "session:" in out

    def test_fig8_fig9_share_one_family_computation(self, monkeypatch):
        expanded = self._count_expansions(monkeypatch)
        assert main(["fig8", "fig9", "--points", "5", "--no-plot"]) == 0
        assert expanded == ["fig8_9"]

    def test_lump_flag_reaches_the_session(self, capsys):
        assert main(["fig8", "--points", "5", "--no-plot", "--lump"]) == 0
        out = capsys.readouterr().out
        assert "lumped" in out
