"""The CSL/CSRL model checker.

The checker maps every operator of the logic onto the numerical routines of
:mod:`repro.ctmc` and :mod:`repro.analysis`:

=========================  ==================================================
operator                    routine
=========================  ==================================================
``P=? [ phi U<=t psi ]``    :func:`repro.analysis.executor.backward_values`
                            on the chain with decided states absorbed
                            (``U[a,b]``: a second sweep for ``[0, a]``)
``P=? [ phi U psi ]``       :func:`repro.ctmc.dtmc.unbounded_reachability`
``P=? [ X phi ]``           one-step probabilities of the embedded DTMC
``S=? [ phi ]``             a one-request session (kind ``STEADY_STATE``);
                            :func:`repro.ctmc.steady_state.steady_state_values_per_state`
                            for per-state vectors
``R=? [ I=t ]``             :func:`repro.ctmc.rewards.instantaneous_reward`
``R=? [ C<=t ]``            :func:`repro.ctmc.rewards.cumulative_reward`
``R=? [ S ]``               a one-request session (``STEADY_STATE`` with a
                            reward observable)
``R=? [ F phi ]``           a one-request session (kind
                            ``REACHABILITY_REWARD``)
=========================  ==================================================

Quantitative queries return a scalar evaluated under the model's initial
distribution (PRISM's convention for a single initial state), while
:meth:`ModelChecker.check_states` exposes the per-state value vector.  A
``P=?`` query under the initial distribution is that distribution times
the per-state vector, so both methods answer path formulas one way.

All queries of one checker run against one
:class:`~repro.ctmc.artifacts.ArtifactCache` — the one it was handed, or a
private one it makes — so they share absorbing transforms, operators and
Fox–Glynn windows (bounded until) and BSCC decompositions, embedded
matrices and LU factorizations (long-run queries, through
:mod:`repro.ctmc.linsolve`); checkers and sessions handed one cache share
them with each other.
"""

from __future__ import annotations

import numpy as np

import repro.csl.formulas as F
from repro.analysis.executor import backward_values
from repro.ctmc import CTMC, MarkovRewardModel
from repro.ctmc.artifacts import ArtifactCache
from repro.ctmc.dtmc import embedded_dtmc, unbounded_reachability
from repro.ctmc.linsolve import SolverEngine
from repro.ctmc.rewards import cumulative_reward, instantaneous_reward
from repro.ctmc.steady_state import steady_state_values_per_state
from repro.csl.parser import parse_formula


class CSLCheckError(ValueError):
    """Raised when a formula cannot be checked against the given model."""


class ModelChecker:
    """A CSL/CSRL model checker bound to a CTMC or Markov reward model."""

    def __init__(
        self,
        model: CTMC | MarkovRewardModel,
        epsilon: float = 1e-10,
        artifacts=None,
    ) -> None:
        if isinstance(model, MarkovRewardModel):
            self._chain = model.chain
            self._reward_model: MarkovRewardModel | None = model
        else:
            self._chain = model
            self._reward_model = None
        self._epsilon = epsilon
        self._artifacts = artifacts if artifacts is not None else ArtifactCache()
        self._engine = SolverEngine(artifacts=self._artifacts)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def check(self, formula: "F.Query | F.Formula | str") -> float | bool:
        """Evaluate a query under the model's initial distribution.

        Quantitative queries (``P=?``, ``S=?``, ``R=?``) return a float;
        state formulas return whether they hold with probability one under
        the initial distribution (i.e. in every initial state).
        """
        if isinstance(formula, str):
            formula = parse_formula(formula)
        initial = self._chain.initial_distribution
        if isinstance(formula, F.ProbabilityQuery):
            return float(initial @ self._path_probabilities(formula.path))
        if isinstance(formula, F.SteadyStateQuery):
            return self._session_scalar(
                kind_name="STEADY_STATE",
                target=self._state_mask(formula.state_formula),
            )
        if isinstance(formula, F.RewardQuery):
            return self._reward_query(formula)
        mask = self._state_mask(formula)
        return bool(np.all(mask[initial > 0]))

    def check_states(self, formula: "F.Query | F.Formula | str") -> np.ndarray:
        """Evaluate a query per state (vector of floats or booleans)."""
        if isinstance(formula, str):
            formula = parse_formula(formula)
        if isinstance(formula, F.ProbabilityQuery):
            return self._path_probabilities(formula.path)
        if isinstance(formula, F.SteadyStateQuery):
            # The steady-state value is the same for every state of an
            # irreducible chain; in general it depends on the start state
            # via BSCC reachability.  One BSCC decomposition, one stationary
            # solve per BSCC and one multi-column absorption solve cover
            # every point-mass start at once.
            mask = self._state_mask(formula.state_formula)
            return steady_state_values_per_state(
                self._chain, mask.astype(float), engine=self._engine
            )
        if isinstance(formula, F.RewardQuery):
            raise CSLCheckError("per-state reward queries are not supported; use check()")
        return self._state_mask(formula)

    # ------------------------------------------------------------------
    # state formulas
    # ------------------------------------------------------------------
    def _state_mask(self, formula: F.Formula) -> np.ndarray:
        if isinstance(formula, F.TrueFormula):
            return np.ones(self._chain.num_states, dtype=bool)
        if isinstance(formula, F.FalseFormula):
            return np.zeros(self._chain.num_states, dtype=bool)
        if isinstance(formula, F.Atomic):
            return self._chain.label_mask(formula.name)
        if isinstance(formula, F.Not):
            return ~self._state_mask(formula.operand)
        if isinstance(formula, F.And):
            return self._state_mask(formula.left) & self._state_mask(formula.right)
        if isinstance(formula, F.Or):
            return self._state_mask(formula.left) | self._state_mask(formula.right)
        if isinstance(formula, F.Implies):
            return ~self._state_mask(formula.left) | self._state_mask(formula.right)
        if isinstance(formula, F.ProbabilityBound):
            probabilities = self._path_probabilities(formula.path)
            return _compare(probabilities, formula.comparator, formula.bound)
        if isinstance(formula, F.SteadyStateBound):
            inner = F.SteadyStateQuery(formula.state_formula)
            values = self.check_states(inner)
            return _compare(values, formula.comparator, formula.bound)
        raise CSLCheckError(f"unsupported state formula {formula!r}")

    # ------------------------------------------------------------------
    # path formulas
    # ------------------------------------------------------------------
    def _path_probabilities(self, path: F.PathFormula) -> np.ndarray:
        if isinstance(path, F.Next):
            target = self._state_mask(path.operand)
            jump = embedded_dtmc(self._chain)
            return np.asarray(jump.transition_matrix @ target.astype(float)).ravel()
        if isinstance(path, F.BoundedUntil):
            return self._bounded_until(path)
        if isinstance(path, F.Until):
            left = self._state_mask(path.left)
            right = self._state_mask(path.right)
            return unbounded_reachability(self._chain, right, left, engine=self._engine)
        if isinstance(path, F._Globally):
            negated = F.Not(path.operand)
            if path.upper is None:
                inner: F.PathFormula = F.Until(F.TrueFormula(), negated)
            else:
                inner = F.BoundedUntil(F.TrueFormula(), negated, path.upper)
            return 1.0 - self._path_probabilities(inner)
        raise CSLCheckError(f"unsupported path formula {path!r}")

    def _bounded_until(self, path: F.BoundedUntil) -> np.ndarray:
        left = self._state_mask(path.left)
        right = self._state_mask(path.right)
        # [a, b] phase: the standard bounded until for the remaining b - a,
        # on the chain with the decided states (targets and states outside
        # left ∪ right) absorbed.
        second = self._backward(
            right | ~(left | right), right.astype(float), path.upper - path.lower
        )
        if path.lower == 0.0:
            return second
        # [0, a] phase: only "left" states may be traversed and the target
        # plays no role; non-left states are absorbing with value 0, and the
        # walk is seeded with the [a, b] phase values.
        blocked = ~left
        first = self._backward(blocked, np.where(blocked, 0.0, second), path.lower)
        return np.where(blocked, 0.0, first)

    def _backward(
        self, absorbing: np.ndarray, values: np.ndarray, horizon: float
    ) -> np.ndarray:
        """Per-state values after ``horizon`` on the chain with ``absorbing`` absorbed."""
        chain = self._artifacts.transformed_chain(self._chain, absorbing)
        per_state = backward_values(
            chain, values, [horizon], epsilon=self._epsilon, artifacts=self._artifacts
        )
        return np.clip(per_state[0], 0.0, 1.0)

    # ------------------------------------------------------------------
    # reward queries
    # ------------------------------------------------------------------
    def _reward_query(self, query: F.RewardQuery) -> float:
        if self._reward_model is None:
            raise CSLCheckError(
                "reward query on a model without reward structures; "
                "construct the checker with a MarkovRewardModel"
            )
        name = query.reward_name
        objective = query.objective
        if isinstance(objective, F.InstantaneousReward):
            return instantaneous_reward(self._reward_model, objective.time, name, epsilon=self._epsilon)
        if isinstance(objective, F.CumulativeReward):
            return cumulative_reward(self._reward_model, objective.time, name, epsilon=self._epsilon)
        if isinstance(objective, F.SteadyStateReward):
            return self._session_scalar(
                kind_name="STEADY_STATE",
                rewards=self._reward_model.reward_structure(name).state_rewards,
            )
        if isinstance(objective, F.ReachabilityReward):
            return self._session_scalar(
                kind_name="REACHABILITY_REWARD",
                target=self._state_mask(objective.target),
                rewards=self._reward_model.reward_structure(name).state_rewards,
            )
        raise CSLCheckError(f"unsupported reward objective {objective!r}")

    # ------------------------------------------------------------------
    # long-run session glue
    # ------------------------------------------------------------------
    def _session_scalar(self, kind_name: str, **fields) -> float:
        """Evaluate one long-run measure under the initial distribution.

        A thin one-request :class:`repro.analysis.AnalysisSession` over the
        named long-run kind, run against the checker's artifact cache, so
        its factorizations and BSCC decompositions serve later queries too.
        """
        from repro.analysis import AnalysisSession, MeasureKind

        session = AnalysisSession(artifacts=self._artifacts)
        index = session.request(
            self._chain, (), kind=MeasureKind[kind_name], **fields
        )
        return float(session.execute()[index].squeezed[0])


def _compare(values: np.ndarray, comparator: str, bound: float) -> np.ndarray:
    if comparator == "<":
        return values < bound
    if comparator == "<=":
        return values <= bound
    if comparator == ">":
        return values > bound
    if comparator == ">=":
        return values >= bound
    raise CSLCheckError(f"unknown comparator {comparator!r}")


def check(
    model: CTMC | MarkovRewardModel,
    formula: "F.Query | F.Formula | str",
    epsilon: float = 1e-10,
    artifacts=None,
) -> float | bool:
    """Convenience wrapper: build a :class:`ModelChecker` and evaluate ``formula``."""
    return ModelChecker(model, epsilon, artifacts).check(formula)
