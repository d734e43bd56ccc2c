"""Transient analysis of CTMCs by uniformization.

The central routine is :func:`transient_distribution`, which computes the
state distribution ``π(t)`` of a CTMC at time ``t`` from its initial
distribution using uniformization with Fox–Glynn Poisson weights.  On top of
it:

* :func:`transient_distributions` evaluates a whole grid of time points in a
  single shared uniformization sweep (the vector-power sequence ``π₀·Pᵏ`` is
  walked once and every grid point's Poisson mixture is folded in along the
  way, see :mod:`repro.ctmc.uniformization`),
* :func:`time_bounded_reachability` computes
  ``P[ F^{<= t} target ]`` / ``P[ safe U^{<= t} target ]`` — the probability
  of reaching target states within a time bound, the backbone of the CSL
  time-bounded until operator and of the paper's reliability and
  survivability measures.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.ctmc.ctmc import CTMC, as_state_mask
from repro.ctmc.uniformization import DEFAULT_EPSILON

__all__ = [
    "DEFAULT_EPSILON",
    "expected_time_in_states",
    "time_bounded_reachability",
    "transient_distribution",
    "transient_distributions",
]


#: Normalise a state set (label name, index list or boolean mask); kept under
#: the historical name for the callers in dtmc.py / steady_state.py.
_as_state_mask = as_state_mask


def transient_distribution(
    chain: CTMC,
    time: float,
    initial_distribution: np.ndarray | None = None,
    epsilon: float = DEFAULT_EPSILON,
) -> np.ndarray:
    """Return the transient distribution ``π(time)`` of ``chain``.

    Parameters
    ----------
    chain:
        The CTMC to analyse.
    time:
        The (non-negative) time point.
    initial_distribution:
        Optional override of the chain's initial distribution.
    epsilon:
        Truncation error of the Poisson mixture.
    """
    return transient_distributions(chain, [time], initial_distribution, epsilon)[0]


def transient_distributions(
    chain: CTMC,
    times: Sequence[float],
    initial_distribution: np.ndarray | None = None,
    epsilon: float = DEFAULT_EPSILON,
) -> np.ndarray:
    """Return transient distributions for several time points.

    The result is an array of shape ``(len(times), num_states)``; row ``i``
    is ``π(times[i])``.  Time points may be given in any order and may
    contain duplicates; the whole grid is evaluated in one shared
    uniformization sweep, so the cost is governed by the *largest* Fox–Glynn
    truncation point rather than the sum over all grid points.

    This is a thin wrapper over a one-request
    :class:`repro.analysis.AnalysisSession`; to batch several initial
    distributions or several measures through the same sweep, build the
    session yourself (see :mod:`repro.analysis`).
    """
    from repro.analysis import AnalysisSession, MeasureKind

    session = AnalysisSession(epsilon=epsilon)
    index = session.request(
        chain,
        times,
        kind=MeasureKind.TRANSIENT,
        initial_distributions=initial_distribution,
    )
    return session.execute()[index].squeezed


def time_bounded_reachability(
    chain: CTMC,
    target: Iterable[int] | np.ndarray | str,
    time: float | Sequence[float],
    safe: Iterable[int] | np.ndarray | str | None = None,
    initial_distribution: np.ndarray | None = None,
    epsilon: float = DEFAULT_EPSILON,
) -> float | np.ndarray:
    """Probability of reaching ``target`` within ``time`` while staying in ``safe``.

    Implements the standard CSL reduction: states outside ``safe ∪ target``
    and states inside ``target`` are made absorbing, after which
    ``P[ safe U^{<=t} target ]`` equals the transient probability of being in
    a target state at time ``t``.

    Parameters
    ----------
    chain:
        The CTMC.
    target:
        Target states (label name, indices, or boolean mask).
    time:
        A single time bound or a sequence of time bounds.
    safe:
        States that may be traversed (defaults to all states, i.e. the
        formula ``true U^{<=t} target``).
    initial_distribution:
        Optional override of the chain's initial distribution; the result is
        the probability weighted by this distribution.  Pass a point
        distribution to get the value for a single state.
    epsilon:
        Truncation error of the Poisson mixture.

    Returns
    -------
    float or numpy.ndarray
        The reachability probability, scalar if ``time`` is scalar.

    Notes
    -----
    This is a thin wrapper over a one-request
    :class:`repro.analysis.AnalysisSession` (kind ``REACHABILITY``): the
    session absorbs the decided states — targets are "won", states outside
    ``safe ∪ target`` are "lost" — and folds the target-indicator products
    of all time bounds into one uniformization sweep.
    """
    from repro.analysis import AnalysisSession, MeasureKind

    scalar_input = np.isscalar(time)
    times = [float(time)] if scalar_input else [float(value) for value in time]

    session = AnalysisSession(epsilon=epsilon)
    index = session.request(
        chain,
        times,
        kind=MeasureKind.REACHABILITY,
        target=target,
        safe=safe,
        initial_distributions=initial_distribution,
    )
    probabilities = session.execute()[index].squeezed
    if scalar_input:
        return float(probabilities[0])
    return probabilities


def expected_time_in_states(
    chain: CTMC,
    states: Iterable[int] | np.ndarray | str,
    horizon: float,
    initial_distribution: np.ndarray | None = None,
    epsilon: float = DEFAULT_EPSILON,
) -> float:
    """Expected total time spent in ``states`` during ``[0, horizon]``.

    Computed as the cumulative reward of an indicator reward structure, via
    the uniformization formula for accumulated rewards (see
    :func:`repro.ctmc.rewards.cumulative_reward`); provided here as a
    convenience for interval-availability style measures.
    """
    from repro.ctmc.rewards import cumulative_reward  # local import to avoid a cycle
    from repro.ctmc.ctmc import MarkovRewardModel, RewardStructure

    mask = _as_state_mask(chain, states)
    structure = RewardStructure("indicator", mask.astype(float))
    model = MarkovRewardModel(chain, structure)
    return cumulative_reward(
        model, horizon, reward_name="indicator",
        initial_distribution=initial_distribution, epsilon=epsilon,
    )
