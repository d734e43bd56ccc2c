"""Tests for the CSL/CSRL parser and model checker."""

import numpy as np
import pytest

from repro.analysis.executor import backward_values
from repro.csl import CSLParseError, ModelChecker, check, parse_formula
from repro.csl import formulas as F
from repro.ctmc import CTMC, MarkovRewardModel, RewardStructure
from repro.ctmc.artifacts import ArtifactCache
from repro.ctmc.ctmc import CTMCError


@pytest.fixture
def repairable_model() -> MarkovRewardModel:
    lam, mu = 0.02, 0.4
    chain = CTMC(
        np.array([[0.0, lam], [mu, 0.0]]),
        {0: 1.0},
        labels={"up": [0], "down": [1]},
    )
    return MarkovRewardModel(chain, RewardStructure("cost", np.array([0.0, 3.0])))


class TestParser:
    @pytest.mark.parametrize(
        "source, expected_type",
        [
            ('P=? [ true U<=100 "down" ]', F.ProbabilityQuery),
            ('P=? [ "up" U "down" ]', F.ProbabilityQuery),
            ('P=? [ F<=10 "down" ]', F.ProbabilityQuery),
            ('P=? [ G<=10 "up" ]', F.ProbabilityQuery),
            ('P=? [ X "down" ]', F.ProbabilityQuery),
            ('S=? [ "up" ]', F.SteadyStateQuery),
            ('R{"cost"}=? [ I=4.5 ]', F.RewardQuery),
            ('R{"cost"}=? [ C<=10 ]', F.RewardQuery),
            ("R=? [ S ]", F.RewardQuery),
            ('R=? [ F "up" ]', F.RewardQuery),
            ('"up" & !"down"', F.And),
            ('P>=0.99 [ true U<=10 "up" ]', F.ProbabilityBound),
        ],
    )
    def test_accepts(self, source, expected_type):
        assert isinstance(parse_formula(source), expected_type)

    @pytest.mark.parametrize(
        "source",
        [
            "",
            "P=? [ ]",
            'P=? [ "a" U ]',
            'Q=? [ "a" ]',
            'P=? [ true U<=x "a" ]',
            'R{cost}=? [ C<=10 ]',
            'S=? [ "a" ] trailing',
        ],
    )
    def test_rejects(self, source):
        with pytest.raises(CSLParseError):
            parse_formula(source)

    def test_round_trip_through_str(self):
        source = 'P=? [ "up" U<=12.5 "down" ]'
        formula = parse_formula(source)
        assert str(parse_formula(str(formula))) == str(formula)

    def test_interval_until(self):
        formula = parse_formula('P=? [ true U[2,5] "down" ]')
        path = formula.path
        assert isinstance(path, F.BoundedUntil)
        assert path.lower == 2.0 and path.upper == 5.0


class TestChecker:
    def test_steady_state_query(self, repairable_model):
        value = check(repairable_model, 'S=? [ "up" ]')
        assert value == pytest.approx(0.4 / 0.42, abs=1e-10)

    def test_bounded_until(self, repairable_model):
        lam = 0.02
        value = check(repairable_model, 'P=? [ true U<=10 "down" ]')
        assert value == pytest.approx(1.0 - np.exp(-lam * 10.0), abs=1e-9)

    def test_unbounded_until(self, repairable_model):
        assert check(repairable_model, 'P=? [ true U "down" ]') == pytest.approx(1.0)

    def test_next_operator(self, repairable_model):
        # From "up" every jump goes to "down".
        assert check(repairable_model, 'P=? [ X "down" ]') == pytest.approx(1.0)

    def test_globally(self, repairable_model):
        lam = 0.02
        value = check(repairable_model, 'P=? [ G<=10 "up" ]')
        assert value == pytest.approx(np.exp(-lam * 10.0), abs=1e-9)

    def test_interval_until_equals_difference_of_windows(self, repairable_model):
        # For this chain, P[true U[a,b] down] from "up" staying in true:
        # must be at least P(F<=b down) - P(F<=a down) ... here simply check
        # consistency with the zero-lower-bound case.
        full = check(repairable_model, 'P=? [ true U<=10 "down" ]')
        delayed = check(repairable_model, 'P=? [ true U[0,10] "down" ]')
        assert delayed == pytest.approx(full, abs=1e-9)

    def test_probability_bound_as_state_formula(self, repairable_model):
        assert check(repairable_model, 'P>=0.99 [ true U<=1000 "down" ]') is True
        assert check(repairable_model, 'P<=0.0001 [ true U<=1000 "down" ]') is False

    def test_boolean_connectives(self, repairable_model):
        checker = ModelChecker(repairable_model)
        mask = checker.check_states(parse_formula('"up" | "down"'))
        assert mask.all()
        mask = checker.check_states(parse_formula('!"up"'))
        assert list(mask) == [False, True]

    def test_reward_queries(self, repairable_model):
        lam, mu = 0.02, 0.4
        limit = 3.0 * lam / (lam + mu)
        assert check(repairable_model, 'R{"cost"}=? [ S ]') == pytest.approx(limit, abs=1e-10)
        assert check(repairable_model, 'R{"cost"}=? [ I=10000 ]') == pytest.approx(limit, abs=1e-6)
        assert check(repairable_model, 'R{"cost"}=? [ C<=0 ]') == 0.0
        # Expected cost until reaching "down": zero, since cost accrues only in "down".
        assert check(repairable_model, 'R{"cost"}=? [ F "down" ]') == pytest.approx(0.0, abs=1e-12)

    def test_reachability_reward_counts_time(self):
        chain = CTMC(
            np.array([[0.0, 0.5], [0.0, 0.0]]),
            {0: 1.0},
            labels={"goal": [1]},
        )
        model = MarkovRewardModel(chain, RewardStructure("time", np.array([1.0, 1.0])))
        # Expected time to absorb = 1/0.5 = 2.
        assert check(model, 'R{"time"}=? [ F "goal" ]') == pytest.approx(2.0)

    def test_reachability_reward_infinite_when_unreachable(self):
        chain = CTMC(np.zeros((2, 2)), {0: 1.0}, labels={"goal": [1]})
        model = MarkovRewardModel(chain, RewardStructure("time", np.ones(2)))
        assert check(model, 'R{"time"}=? [ F "goal" ]') == float("inf")

    def test_reward_query_without_reward_model_fails(self, two_state_chain):
        with pytest.raises(Exception):
            check(two_state_chain, 'R=? [ C<=10 ]')

    def test_state_formula_at_initial_state(self, repairable_model):
        assert check(repairable_model, '"up"') is True
        assert check(repairable_model, '"down"') is False

    def test_per_state_values(self, repairable_model):
        checker = ModelChecker(repairable_model)
        values = checker.check_states('P=? [ true U<=5 "down" ]')
        assert values.shape == (2,)
        assert values[1] == pytest.approx(1.0)
        assert 0.0 < values[0] < 1.0


class TestNonFiniteTimeBounds:
    """Infinite, NaN and overflowing bounds are clean errors on both paths."""

    FORMULAS = [
        'P=? [ true U<=inf "failed" ]',
        'P=? [ true U<=nan "failed" ]',
        'P=? [ true U[1e400,1e401] "failed" ]',
        'P>0.5 [ true U<=1e400 "failed" ]',
    ]

    @pytest.fixture
    def failing_chain(self) -> CTMC:
        return CTMC(
            np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 0.0, 0.0]]),
            {0: 1.0},
            labels={"failed": [2]},
        )

    @pytest.mark.parametrize("method", ["check", "check_states"])
    @pytest.mark.parametrize("source", FORMULAS)
    def test_formula_is_rejected(self, failing_chain, source, method):
        checker = ModelChecker(failing_chain)
        with pytest.raises(ValueError, match="invalid time interval"):
            getattr(checker, method)(source)

    @pytest.mark.parametrize(
        "horizon, message",
        [(-1.0, "non-negative"), (float("nan"), "finite"), (float("inf"), "finite")],
    )
    def test_backward_values_rejects_the_horizon(self, failing_chain, horizon, message):
        with pytest.raises(CTMCError, match=message):
            backward_values(
                failing_chain,
                np.zeros(3),
                [horizon],
                epsilon=1e-10,
                artifacts=ArtifactCache(),
            )
