"""Tests for the coalesced rollout optimizer (`repro.optimize.rollout`).

Checks the optimizer's two contract points: the optimized policy is at
least as good as every fixed-strategy baseline (to 1e-9), and all candidate
one-step deviations of a round are scored off one backward value sweep
(one value column per policy) rather than one evaluation per candidate.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import AnalysisSession, MeasureKind
from repro.casestudy.experiments import line_service_interval_lower
from repro.casestudy.facility import DISASTER_2, LINE2, build_line
from repro.ctmc.uniformization import ENGINE_STATS
from repro.optimize import (
    OptimizeError,
    OptimizerStats,
    RepairCTMDP,
    default_candidates,
    rollout_optimize,
)
from repro.service import ArtifactCache
from tests.helpers import make_mini_model


@pytest.fixture(scope="module")
def line2_ctmdp() -> RepairCTMDP:
    return RepairCTMDP(build_line(LINE2))


class TestSurvivability:
    def test_result_dominates_every_baseline(self, line2_ctmdp):
        stats = OptimizerStats()
        result = rollout_optimize(
            line2_ctmdp,
            "survivability",
            disaster=DISASTER_2,
            horizon=24.0,
            threshold=line_service_interval_lower(LINE2, 0),
            points=17,
            stats=stats,
        )
        assert set(result.baselines) == set(default_candidates(line2_ctmdp))
        for label, value in result.baselines.items():
            assert result.value >= value - 1e-9, label
        assert result.value == result.curve[-1]
        assert result.curve.shape == result.times.shape
        assert result.best_baseline == result.baselines[result.base_label]

    def test_candidates_ride_coalesced_sweeps(self, line2_ctmdp):
        """K one-step deviations cost ~1 sweep per round, not K."""
        stats = OptimizerStats()
        rollout_optimize(
            line2_ctmdp,
            "survivability",
            disaster=DISASTER_2,
            horizon=24.0,
            threshold=line_service_interval_lower(LINE2, 0),
            points=17,
            stats=stats,
        )
        deviations_per_round = line2_ctmdp.total_actions - line2_ctmdp.num_states
        assert stats.candidate_actions >= deviations_per_round
        # Every round's policy is evaluated by one backward sweep.
        assert stats.coalesced_sweeps <= 2 * stats.rollout_iterations
        assert stats.sweeps_saved >= deviations_per_round - 2 * stats.rollout_iterations
        assert stats.policy_evaluations == stats.rollout_iterations

    def test_every_sweep_carries_one_column(self, line2_ctmdp):
        """Policies are evaluated by a value column, not an identity block."""
        matvecs, applies = ENGINE_STATS.matvecs, ENGINE_STATS.applies
        rollout_optimize(
            line2_ctmdp,
            "survivability",
            disaster=DISASTER_2,
            horizon=24.0,
            threshold=line_service_interval_lower(LINE2, 0),
            points=17,
            stats=OptimizerStats(),
        )
        assert ENGINE_STATS.applies > applies
        assert ENGINE_STATS.matvecs - matvecs == ENGINE_STATS.applies - applies

    def test_improved_value_matches_a_forward_evaluation(self):
        """The backward values agree with a forward sweep from the disaster."""
        ctmdp = RepairCTMDP(build_line(LINE2), crew_limit=1)
        threshold = line_service_interval_lower(LINE2, 0)
        result = rollout_optimize(
            ctmdp,
            "survivability",
            disaster=DISASTER_2,
            horizon=24.0,
            threshold=threshold,
            points=17,
            stats=OptimizerStats(),
        )
        assert result.improved
        initial = np.zeros(ctmdp.num_states)
        initial[ctmdp.disaster_state(DISASTER_2)] = 1.0
        session = AnalysisSession()
        index = session.request(
            ctmdp.induced_chain(result.policy),
            result.times,
            kind=MeasureKind.REACHABILITY,
            target=ctmdp.states_with_service_at_least(threshold),
            initial_distributions=initial,
        )
        forward = session.execute()[index].squeezed
        assert result.value == pytest.approx(forward[-1], rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(result.curve, forward, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("removed", ["engine", "session_stats"])
    def test_session_keywords_are_gone(self, line2_ctmdp, removed):
        with pytest.raises(TypeError, match=removed):
            rollout_optimize(
                line2_ctmdp,
                "accumulated_cost",
                disaster=DISASTER_2,
                horizon=1.0,
                **{removed: None},
            )

    def test_missing_threshold_raises(self, line2_ctmdp):
        with pytest.raises(OptimizeError, match="threshold"):
            rollout_optimize(
                line2_ctmdp, "survivability", disaster=DISASTER_2, horizon=24.0
            )


class TestAccumulatedCost:
    def test_result_costs_at_most_every_baseline(self, line2_ctmdp):
        result = rollout_optimize(
            line2_ctmdp,
            "accumulated_cost",
            disaster=DISASTER_2,
            horizon=24.0,
            points=13,
        )
        for label, value in result.baselines.items():
            assert result.value <= value + 1e-9, label
        # Accumulated cost grows with time.
        assert np.all(np.diff(result.curve) >= -1e-12)


class TestWarmPath:
    def test_reoptimization_reuses_cached_artifacts(self):
        """Same CTMDP + shared artifact cache: the rerun adds no misses."""
        ctmdp = RepairCTMDP(make_mini_model())
        artifacts = ArtifactCache()
        kwargs = dict(
            disaster="everything",
            horizon=10.0,
            threshold=1.0,
            points=9,
            artifacts=artifacts,
        )
        first = rollout_optimize(ctmdp, "survivability", **kwargs)
        before = artifacts.stats()
        second = rollout_optimize(ctmdp, "survivability", **kwargs)
        deltas = artifacts.stats().misses_since(before)
        assert all(value == 0 for value in deltas.values()), deltas
        assert second.value == pytest.approx(first.value, abs=1e-12)

    def test_unknown_objective_raises(self):
        ctmdp = RepairCTMDP(make_mini_model())
        with pytest.raises(OptimizeError, match="finite-horizon objective"):
            rollout_optimize(ctmdp, "availability", disaster="everything", horizon=1.0)
