"""Tests for the repair CTMDP (`repro.optimize.ctmdp`).

The load-bearing property is *faithfulness*: the paper's fixed strategies,
mapped onto set-based policies, must reproduce the measures of the original
queue-ordered state spaces to solver precision.  The rest covers the action
space, the flat-array bookkeeping and the guard rails.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import AnalysisSession, MeasureKind, MeasureRequest
from repro.arcade.repair import RepairStrategy
from repro.casestudy.experiments import (
    line_service_interval_lower,
    line_state_space,
)
from repro.casestudy.facility import (
    DISASTER_2,
    LINE2,
    PAPER_STRATEGIES,
    StrategyConfiguration,
    build_line,
)
from repro.measures import steady_state_availability, survivability_request
from repro.optimize import OptimizeError, RepairCTMDP, RepairPolicy
from tests.helpers import make_mini_model


@pytest.fixture(scope="module")
def line2_ctmdp() -> RepairCTMDP:
    return RepairCTMDP(build_line(LINE2))


class TestConstruction:
    def test_states_are_failed_set_bitmasks(self):
        ctmdp = RepairCTMDP(make_mini_model())
        assert ctmdp.num_states == 8
        assert ctmdp.state_of(()) == 0
        assert ctmdp.state_of(("alpha",)) == 1
        assert ctmdp.state_of(("alpha", "gamma")) == 5
        assert ctmdp.disaster_state("everything") == 7
        assert ctmdp.failed_of_state[5] == ("alpha", "gamma")

    def test_action_space_sizes(self):
        # One unit over three components, unlimited crews: each state admits
        # every non-empty subset of its failed components (or idle if none).
        ctmdp = RepairCTMDP(make_mini_model())
        for mask in range(8):
            failed = bin(mask).count("1")
            expected = max(1, 2**failed - 1)
            assert len(ctmdp.actions_of(mask)) == expected
        # crew_limit=1: one served component per unit.
        capped = RepairCTMDP(make_mini_model(), crew_limit=1)
        for mask in range(8):
            failed = bin(mask).count("1")
            assert len(capped.actions_of(mask)) == max(1, failed)

    def test_action_costs_match_model_state_cost_rate(self):
        ctmdp = RepairCTMDP(make_mini_model(), crew_limit=1)
        model = ctmdp.model
        for mask in range(ctmdp.num_states):
            for flat in ctmdp.actions_of(mask):
                busy = {
                    unit.name: len(subset)
                    for unit, subset in zip(
                        model.repair_units, ctmdp.action_served[flat]
                    )
                }
                expected = model.state_cost_rate(ctmdp.failed_of_state[mask], busy)
                assert ctmdp.action_cost[flat] == pytest.approx(expected, abs=1e-12)

    def test_down_and_service_levels_follow_the_trees(self, line2_ctmdp):
        ctmdp = line2_ctmdp
        model = ctmdp.model
        for mask in (0, 1, ctmdp.num_states - 1):
            failed = ctmdp.failed_of_state[mask]
            assert ctmdp.down[mask] == model.is_down(failed)
            assert ctmdp.service_fractions[mask] == model.service_level(failed)
        threshold = line_service_interval_lower(LINE2, 0)
        in_x1 = ctmdp.states_with_service_at_least(threshold)
        assert in_x1[0]  # all-up certainly reaches X1
        assert not in_x1[ctmdp.disaster_state(DISASTER_2)]

    def test_service_targets_select_the_queue_spaces_failed_sets(self, line2_ctmdp):
        # One threshold rule: a float target, e.g. 2/3 rounded to 7 decimals,
        # selects the same failed sets in the CTMDP as in the queue space.
        space = line_state_space(LINE2, PAPER_STRATEGIES[1])
        for level in space.model.effective_service_tree().attainable_levels():
            for threshold in (level, round(float(level), 7)):
                queue_sets = {
                    space.failed_components(index)
                    for index in space.states_with_service_at_least(threshold)
                }
                mask = line2_ctmdp.states_with_service_at_least(threshold)
                ctmdp_sets = {
                    frozenset(line2_ctmdp.failed_of_state[state])
                    for state in np.flatnonzero(mask)
                }
                assert queue_sets == ctmdp_sets, threshold

    def test_guard_rails(self):
        with pytest.raises(OptimizeError, match="crew_limit"):
            RepairCTMDP(make_mini_model(), crew_limit=0)
        with pytest.raises(OptimizeError, match="unknown component"):
            RepairCTMDP(make_mini_model()).state_of(("nope",))

    def test_validate_policy_rejects_bad_shapes_and_actions(self):
        ctmdp = RepairCTMDP(make_mini_model())
        with pytest.raises(OptimizeError, match="8 states"):
            ctmdp.validate_policy(RepairPolicy("short", (0,)))
        # Action 0 belongs to state 0 only.
        bad = RepairPolicy("bad", tuple(0 for _ in range(8)))
        with pytest.raises(OptimizeError, match="out-of-state"):
            ctmdp.validate_policy(bad)


class TestStrategyPolicies:
    def test_fcfs_has_no_set_based_policy(self, line2_ctmdp):
        with pytest.raises(OptimizeError, match="FCFS"):
            line2_ctmdp.strategy_policy(
                StrategyConfiguration(RepairStrategy.FCFS, 1)
            )

    def test_capped_ctmdp_rejects_strategies_over_budget(self):
        ctmdp = RepairCTMDP(build_line(LINE2), crew_limit=1)
        with pytest.raises(OptimizeError, match="caps units"):
            ctmdp.strategy_policy(
                StrategyConfiguration(RepairStrategy.DEDICATED, 1)
            )

    def test_dedicated_serves_every_failed_component(self, line2_ctmdp):
        ctmdp = line2_ctmdp
        policy = ctmdp.strategy_policy(
            StrategyConfiguration(RepairStrategy.DEDICATED, 1)
        )
        worst = ctmdp.num_states - 1
        served = ctmdp.action_served[policy.actions[worst]]
        total = sum(len(subset) for subset in served)
        assert total == len(ctmdp.component_names)

    def test_steady_state_availability_matches_queue_chains(self, line2_ctmdp):
        """All five paper strategies: set-based policy == queue-ordered chain."""
        ctmdp = line2_ctmdp
        for configuration in PAPER_STRATEGIES:
            policy = ctmdp.strategy_policy(configuration)
            chain = ctmdp.induced_chain(policy)
            session = AnalysisSession()
            index = session.add(
                MeasureRequest(
                    chain=chain,
                    times=(),
                    kind=MeasureKind.STEADY_STATE,
                    target="operational",
                )
            )
            from_ctmdp = float(session.execute()[index].squeezed[0])
            reference = steady_state_availability(
                line_state_space(LINE2, configuration)
            )
            assert from_ctmdp == pytest.approx(reference, abs=1e-9), (
                configuration.label
            )

    def test_survivability_matches_queue_chain(self, line2_ctmdp):
        """Reachability curves agree between set-based and queue spaces."""
        ctmdp = line2_ctmdp
        configuration = next(
            c for c in PAPER_STRATEGIES if c.label == "FRF-2"
        )
        times = np.linspace(0.0, 40.0, 9)
        threshold = line_service_interval_lower(LINE2, 0)
        session = AnalysisSession()
        reference_index = session.add(
            survivability_request(
                line_state_space(LINE2, configuration), DISASTER_2, threshold, times
            )
        )
        policy = ctmdp.strategy_policy(configuration)
        initial = np.zeros(ctmdp.num_states)
        initial[ctmdp.disaster_state(DISASTER_2)] = 1.0
        ctmdp_index = session.add(
            MeasureRequest(
                chain=ctmdp.induced_chain(policy),
                times=times,
                kind=MeasureKind.REACHABILITY,
                target=ctmdp.states_with_service_at_least(threshold),
                initial_distributions=initial,
            )
        )
        results = session.execute()
        np.testing.assert_allclose(
            results[ctmdp_index].squeezed, results[reference_index].squeezed, atol=1e-9
        )


class TestInducedChains:
    def test_chain_memoized_by_action_tuple(self, line2_ctmdp):
        ctmdp = line2_ctmdp
        policy = ctmdp.strategy_policy(PAPER_STRATEGIES[0])
        assert ctmdp.chain_is_cached(policy)  # built by the class-level tests
        renamed = RepairPolicy("other-name", policy.actions)
        assert ctmdp.induced_chain(policy) is ctmdp.induced_chain(renamed)

    def test_generator_rows_match_triplets(self):
        ctmdp = RepairCTMDP(make_mini_model())
        policy = RepairPolicy(
            "first", tuple(int(i) for i in ctmdp.action_offsets[:-1])
        )
        chain = ctmdp.induced_chain(policy)
        q = chain.generator_matrix().toarray()
        # Off-diagonal mass per row = failure rates + chosen repair rates.
        for mask in range(ctmdp.num_states):
            expected = float(
                ctmdp.fail_rate[ctmdp.fail_src == mask].sum()
            )
            flat = policy.actions[mask]
            expected += float(
                ctmdp.repair_rate[ctmdp.repair_action == flat].sum()
            )
            row = q[mask].copy()
            row[mask] = 0.0
            assert row.sum() == pytest.approx(expected, abs=1e-12)

    def test_q_values_score_every_action(self):
        ctmdp = RepairCTMDP(make_mini_model())
        rng = np.random.default_rng(7)
        values = rng.standard_normal(ctmdp.num_states)
        q = ctmdp.action_q_values(values)
        assert q.shape == (ctmdp.total_actions,)
        # Spot-check one action against its generator row.
        flat = ctmdp.action_offsets[7]  # first action of the all-failed state
        state = int(ctmdp.action_state[flat])
        mask = ctmdp.repair_action == flat
        expected = float(
            (ctmdp.repair_rate[mask] * (values[ctmdp.repair_target[mask]] - values[state])).sum()
        )
        fail = ctmdp.fail_src == state
        expected += float(
            (ctmdp.fail_rate[fail] * (values[ctmdp.fail_tgt[fail]] - values[state])).sum()
        )
        assert q[flat] == pytest.approx(expected, abs=1e-12)
