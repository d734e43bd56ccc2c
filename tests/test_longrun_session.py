"""Tests for long-run measures on the batched/warm path.

Covers the acceptance criteria of the cached-linear-solver PR: stacked
``R=?[F phi]`` queries share one factorization, the Table 2 availability
portfolio repeated through the scenario service reports zero
factorization/BSCC cache misses on the second pass, batched ``S=?`` /
``R=?[F]`` values agree with the retained per-call references to <= 1e-12,
and the service observability layer (flush-latency histogram, /metrics
dumps) reports what happened.
"""

from __future__ import annotations

import asyncio
from dataclasses import replace

import numpy as np
import pytest

from repro.analysis import AnalysisSession, MeasureKind, MeasureRequest, SessionStats
from repro.casestudy.experiments import line_state_space, render_experiment
from repro.casestudy.facility import LINE1, LINE2, PAPER_STRATEGIES
from repro.csl import ModelChecker
from repro.ctmc import CTMC, MarkovRewardModel, RewardStructure
from repro.ctmc.ctmc import CTMCError
from repro.ctmc.dtmc import unbounded_reachability
from repro.ctmc.linsolve import reachability_reward_reference
from repro.ctmc.steady_state import steady_state_distribution
from repro.measures import (
    steady_state_availability,
    steady_state_availability_request,
)
from repro.service import (
    ArtifactCache,
    CacheStats,
    LatencyHistogram,
    ScenarioService,
    ServiceStats,
    paper_registry,
)
from repro.stats import render_metrics


def cycle_chain(num_states: int = 5) -> CTMC:
    rates = np.zeros((num_states, num_states))
    for state in range(num_states):
        rates[state, (state + 1) % num_states] = 1.0 + 0.5 * state
    rates[0, num_states - 1] = 0.25
    return CTMC(
        rates,
        {0: 1.0},
        labels={"goal": [num_states - 1], "start": [0]},
    )


# ---------------------------------------------------------------------------
# planner grouping and validation
# ---------------------------------------------------------------------------
class TestLongrunPlanning:
    def test_stacked_reachability_rewards_cost_one_factorization(self):
        chain = cycle_chain()
        rng = np.random.default_rng(0)
        stats = SessionStats()
        session = AnalysisSession(stats=stats)
        columns = [rng.random(chain.num_states) for _ in range(6)]
        indices = [
            session.request(
                chain,
                (),
                kind=MeasureKind.REACHABILITY_REWARD,
                target="goal",
                rewards=column,
            )
            for column in columns
        ]
        results = session.execute()
        assert stats.groups == 1
        # The irreducible chain needs no reachability solve, so the six
        # stacked reward columns share exactly one LU factorization.
        assert stats.factorizations == 1
        assert stats.solved_columns == 6
        assert stats.sweeps == 0  # long-run kinds never sweep
        for index, column in zip(indices, columns):
            reference = reachability_reward_reference(
                chain, column, chain.label_mask("goal")
            )
            assert float(results[index].squeezed[0]) == pytest.approx(
                reference, rel=1e-12, abs=1e-12
            )

    def test_steady_state_targets_and_rewards_share_one_group(self):
        chain = cycle_chain()
        stats = SessionStats()
        session = AnalysisSession(stats=stats)
        session.request(chain, (), kind=MeasureKind.STEADY_STATE, target="goal")
        session.request(
            chain,
            (),
            kind=MeasureKind.STEADY_STATE,
            rewards=np.arange(chain.num_states, dtype=float),
        )
        session.execute()
        assert stats.groups == 1

    def test_unbounded_groups_split_by_target_and_safe(self):
        chain = cycle_chain()
        session = AnalysisSession()
        session.request(
            chain, (), kind=MeasureKind.UNBOUNDED_REACHABILITY, target="goal"
        )
        session.request(
            chain,
            (),
            kind=MeasureKind.UNBOUNDED_REACHABILITY,
            target="goal",
            safe="start",
        )
        plan = session.plan()
        assert plan.num_groups == 2
        assert all(group.longrun for group in plan.groups)

    def test_longrun_requests_reject_time_grids_and_bad_observables(self):
        chain = cycle_chain()
        session = AnalysisSession()
        session.request(chain, [1.0], kind=MeasureKind.STEADY_STATE, target="goal")
        with pytest.raises(CTMCError, match="no time grid"):
            session.execute()
        both = AnalysisSession()
        both.request(
            chain,
            (),
            kind=MeasureKind.STEADY_STATE,
            target="goal",
            rewards=np.ones(chain.num_states),
        )
        with pytest.raises(CTMCError, match="exactly one"):
            both.execute()
        neither = AnalysisSession()
        neither.request(chain, (), kind=MeasureKind.STEADY_STATE)
        with pytest.raises(CTMCError, match="exactly one"):
            neither.execute()
        safe = AnalysisSession()
        safe.request(
            chain,
            (),
            kind=MeasureKind.REACHABILITY_REWARD,
            target="goal",
            rewards=np.ones(chain.num_states),
            safe="start",
        )
        with pytest.raises(CTMCError, match="no safe set"):
            safe.execute()

    def test_initial_distribution_blocks_batch_through_longrun_kinds(self):
        chain = cycle_chain()
        block = np.eye(chain.num_states)[:3]
        session = AnalysisSession()
        index = session.request(
            chain,
            (),
            kind=MeasureKind.UNBOUNDED_REACHABILITY,
            target="goal",
            initial_distributions=block,
        )
        result = session.execute()[index]
        per_state = unbounded_reachability(chain, "goal")
        assert result.values.shape == (3, 1)
        assert result.values[:, 0] == pytest.approx(per_state[:3], abs=1e-12)


# ---------------------------------------------------------------------------
# CSL checker on the session path
# ---------------------------------------------------------------------------
class TestCheckerLongrunPath:
    def test_steady_state_query_matches_distribution_reference(self):
        chain = cycle_chain()
        checker = ModelChecker(chain)
        reference = steady_state_distribution(chain)
        assert checker.check('S=? [ "goal" ]') == pytest.approx(
            float(reference[chain.label_mask("goal")].sum()), abs=1e-12
        )

    def test_until_and_reward_queries_match_references(self):
        chain = cycle_chain()
        rewards = RewardStructure("cost", np.linspace(1.0, 2.0, chain.num_states))
        model = MarkovRewardModel(chain, rewards)
        checker = ModelChecker(model)
        reach_reference = float(
            chain.initial_distribution @ unbounded_reachability(chain, "goal")
        )
        assert checker.check('P=? [ true U "goal" ]') == pytest.approx(
            reach_reference, abs=1e-12
        )
        reward_reference = reachability_reward_reference(
            chain, rewards.state_rewards, chain.label_mask("goal")
        )
        assert checker.check('R=? [ F "goal" ]') == pytest.approx(
            reward_reference, rel=1e-12
        )
        steady_reference = float(
            steady_state_distribution(chain) @ rewards.state_rewards
        )
        assert checker.check("R=? [ S ]") == pytest.approx(steady_reference, abs=1e-12)

    def test_checker_with_artifacts_reuses_factorizations(self):
        chain = cycle_chain(7)
        cache = ArtifactCache()
        checker = ModelChecker(chain, artifacts=cache)
        first = checker.check('S=? [ "goal" ]')
        before = cache.stats()
        assert checker.check('S=? [ "goal" ]') == first
        deltas = cache.stats().misses_since(before)
        assert deltas.get("bscc", 0) == 0
        assert deltas.get("stationary", 0) == 0

    def test_per_state_steady_state_uses_block_solver(self, absorbing_chain):
        checker = ModelChecker(absorbing_chain)
        values = checker.check_states('S=? [ "failed" ]')
        # Every state eventually deadlocks in the absorbing failure state.
        assert values == pytest.approx([1.0, 1.0, 1.0], abs=1e-10)


# ---------------------------------------------------------------------------
# the warm path: Table 2 through the scenario service
# ---------------------------------------------------------------------------
def table2_portfolio(configurations) -> list[MeasureRequest]:
    return [
        steady_state_availability_request(
            line_state_space(line, configuration),
            tag=("table2", line, configuration.label),
        )
        for line in (LINE1, LINE2)
        for configuration in configurations
    ]


class TestWarmAvailabilityPortfolio:
    def test_repeat_portfolio_incurs_zero_longrun_cache_misses(self):
        configurations = PAPER_STRATEGIES[:2]
        cache = ArtifactCache()

        def sweep():
            async def run():
                async with ScenarioService(artifacts=cache) as service:
                    results = await service.submit_many(
                        table2_portfolio(configurations)
                    )
                    return [float(result.squeezed[0]) for result in results]

            return asyncio.run(run())

        cold = sweep()
        before = cache.stats()
        warm = sweep()
        deltas = cache.stats().misses_since(before)
        assert warm == cold  # identical artifacts -> identical values
        assert deltas.get("factorization", 0) == 0
        assert deltas.get("bscc", 0) == 0
        assert deltas.get("stationary", 0) == 0
        # The cross-check against the retained per-call reference.
        for value, request in zip(cold, table2_portfolio(configurations)):
            _, line, label = request.tag
            configuration = next(
                c for c in configurations if c.label == label
            )
            reference = float(
                steady_state_distribution(
                    line_state_space(line, configuration).chain
                )[request.chain.label_mask("operational")].sum()
            )
            assert value == pytest.approx(reference, abs=1e-12)

    def test_table2_session_matches_per_call_availability(self):
        configurations = PAPER_STRATEGIES[:2]
        spec = replace(paper_registry().get("table2"), strategies=configurations)
        stats = SessionStats()
        session = AnalysisSession(stats=stats)
        session.extend(spec.expand())
        results = {result.request.tag: result for result in session.execute()}
        table = render_experiment("table2", spec, results)
        assert stats.requests == 2 * len(configurations)
        assert stats.sweeps == 0
        for configuration in configurations:
            row = table.row_by("strategy", configuration.label)
            reference = steady_state_availability(
                line_state_space(LINE1, configuration)
            )
            assert row[1] == pytest.approx(reference, abs=1e-12)

    def test_registry_exposes_the_table2_scenario(self):
        registry = paper_registry()
        assert "table2" in registry
        requests = registry.expand("table2")
        assert len(requests) == 2 * len(PAPER_STRATEGIES)
        assert all(
            request.kind is MeasureKind.STEADY_STATE for request in requests
        )
        lines = {request.tag[1] for request in requests}
        assert lines == {LINE1, LINE2}


# ---------------------------------------------------------------------------
# observability
# ---------------------------------------------------------------------------
class TestObservability:
    def test_latency_histogram_buckets_and_quantiles(self):
        histogram = LatencyHistogram(bounds=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.05, 0.5, 2.0):
            histogram.observe(value)
        assert histogram.observations == 5
        assert histogram.counts == [1, 2, 1, 1]
        assert histogram.max_seconds == 2.0
        assert histogram.quantile_bound(0.5) == 0.1
        assert histogram.quantile_bound(0.95) == float("inf")
        lines = render_metrics(ServiceStats(flush_latency=histogram)).splitlines()
        assert 'repro_service_flush_latency_seconds_bucket{le="0.1"} 3' in lines
        assert 'repro_service_flush_latency_seconds_bucket{le="+Inf"} 5' in lines
        assert "repro_service_flush_latency_seconds_count 5" in lines

    def test_empty_histogram_summary_and_nan_quantile(self):
        histogram = LatencyHistogram()
        assert histogram.summary() == "flush_latency: (empty)"
        assert np.isnan(histogram.quantile_bound(0.5))

    def test_service_flushes_populate_the_latency_histogram(self):
        chain = cycle_chain()

        async def run():
            async with ScenarioService(artifacts=ArtifactCache()) as service:
                await service.submit(
                    MeasureRequest(
                        chain=chain, times=(), kind=MeasureKind.STEADY_STATE,
                        target="goal",
                    )
                )
                return service.stats

        stats = asyncio.run(run())
        assert stats.flush_latency.observations == stats.flushes == 1
        assert stats.flush_latency.total_seconds > 0.0
        assert "flush_latency" in stats.summary()

    def test_metrics_dumps_expose_counters(self):
        stats = ServiceStats()
        stats.submissions = 3
        stats.session.factorizations = 2
        stats.flush_latency.observe(0.02)
        text = render_metrics(stats)
        assert "repro_service_submissions_total 3" in text
        assert "repro_service_factorizations_total 2" in text
        assert "repro_service_flush_latency_seconds_count 1" in text

        cache = ArtifactCache()
        cache.get_or_create("bscc", ("x",), lambda: 1)
        cache.get_or_create("bscc", ("x",), lambda: 1)
        text = render_metrics(cache.stats())
        assert 'repro_cache_hits_total{kind="bscc"} 1' in text
        assert 'repro_cache_misses_total{kind="bscc"} 1' in text
        assert isinstance(cache.stats(), CacheStats)
