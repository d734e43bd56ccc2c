"""Declarative measure requests for the batched analysis session.

A :class:`MeasureRequest` describes *what* to compute — a chain, one or more
initial distributions, a time grid, and a measure kind — without saying
anything about *how*.  The session planner (:mod:`repro.analysis.planner`)
groups compatible requests and the executor (:mod:`repro.analysis.executor`)
dispatches each group as a single uniformization sweep, so the request
objects are deliberately plain data.

The measure kinds mirror the paper's toolbox:

===========================  ==============================================
kind                          meaning
===========================  ==============================================
``TRANSIENT``                 state distributions ``π(t)`` on the grid
``REACHABILITY``              ``P[ safe U^{<=t} target ]`` per grid point
``INTERVAL_REACHABILITY``     ``P[ safe U^{[a, t]} target ]`` (CSL interval
                              until; ``a`` is :attr:`MeasureRequest.lower`)
``INSTANTANEOUS_REWARD``      expected reward rate, ``R=?[ I=t ]``
``CUMULATIVE_REWARD``         expected accumulated reward, ``R=?[ C<=t ]``
``STEADY_STATE``              long-run probability of the target set
                              (``S=?``) or long-run reward rate (``R=?[S]``
                              when ``rewards`` is given instead)
``UNBOUNDED_REACHABILITY``    ``P[ safe U target ]`` (no time bound)
``REACHABILITY_REWARD``       expected reward until the target, ``R=?[F phi]``
===========================  ==============================================

The last three are the *long-run* kinds: they take no time grid
(``times=()``) and are computed by the cached linear-solver engine
(:mod:`repro.ctmc.linsolve`) instead of a uniformization sweep; their
result values have a single column (the value "at t = ∞").
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.ctmc.ctmc import CTMC, CTMCError, as_state_mask


class MeasureKind(enum.Enum):
    """The measure families the analysis session can compute."""

    TRANSIENT = "transient"
    REACHABILITY = "reachability"
    INTERVAL_REACHABILITY = "interval_reachability"
    INSTANTANEOUS_REWARD = "instantaneous_reward"
    CUMULATIVE_REWARD = "cumulative_reward"
    STEADY_STATE = "steady_state"
    UNBOUNDED_REACHABILITY = "unbounded_reachability"
    REACHABILITY_REWARD = "reachability_reward"


#: Kinds that are defined by a target (and optional safe) state set.
REACHABILITY_KINDS = frozenset(
    {MeasureKind.REACHABILITY, MeasureKind.INTERVAL_REACHABILITY}
)

#: Kinds that are defined by a state reward-rate vector.
REWARD_KINDS = frozenset(
    {MeasureKind.INSTANTANEOUS_REWARD, MeasureKind.CUMULATIVE_REWARD}
)

#: Time-independent kinds computed by the cached linear-solver engine
#: rather than a uniformization sweep; they take no time grid.
LONGRUN_KINDS = frozenset(
    {
        MeasureKind.STEADY_STATE,
        MeasureKind.UNBOUNDED_REACHABILITY,
        MeasureKind.REACHABILITY_REWARD,
    }
)


@dataclass
class MeasureRequest:
    """One declarative measure over a chain, a grid and some initial states.

    Attributes
    ----------
    chain:
        The CTMC to analyse.  Requests on chains with the same content
        fingerprint (the same rate matrix, whatever the object) are
        candidates for sharing a sweep.
    times:
        The time grid (non-negative, any order, duplicates allowed).
    kind:
        Which measure family to compute.
    initial_distributions:
        ``None`` (use the chain's initial distribution), a single vector of
        shape ``(num_states,)``, or a block ``(num_initials, num_states)``.
        A block batches all rows through the shared sweep and the result
        keeps the leading ``num_initials`` axis.
    target, safe:
        State sets (label name, index list or boolean mask) for the
        reachability kinds; ``safe`` defaults to all states.
    lower:
        Lower time bound ``a`` of the CSL interval until (only meaningful
        for ``INTERVAL_REACHABILITY``; every grid point must be ``>= a``).
    rewards:
        State reward-rate vector for the reward kinds.
    epsilon:
        Truncation error of the Poisson mixture; ``None`` uses the session
        default.
    tag:
        Free-form caller identifier, carried through to the result
        untouched (e.g. a ``(strategy, disaster, interval)`` triple).
    """

    chain: CTMC
    times: Sequence[float] | np.ndarray
    kind: MeasureKind = MeasureKind.TRANSIENT
    initial_distributions: np.ndarray | Sequence[float] | None = None
    target: Iterable[int] | np.ndarray | str | None = None
    safe: Iterable[int] | np.ndarray | str | None = None
    lower: float = 0.0
    rewards: np.ndarray | Sequence[float] | None = None
    epsilon: float | None = None
    tag: Any = None

    # ------------------------------------------------------------------
    def initial_block(self) -> tuple[np.ndarray, bool]:
        """The initial distributions as a ``(num_initials, num_states)`` block.

        Returns the block and whether the request was given a single
        distribution (so results should drop the batch axis again).
        """
        if self.initial_distributions is None:
            return self.chain.initial_distribution[None, :], True
        array = np.asarray(self.initial_distributions, dtype=float)
        if array.ndim == 1:
            if array.shape != (self.chain.num_states,):
                raise CTMCError("initial distribution has the wrong length")
            return array[None, :], True
        if array.ndim != 2 or array.shape[1] != self.chain.num_states:
            raise CTMCError(
                "initial distributions must be a vector or a (num_initials, "
                "num_states) block"
            )
        if array.shape[0] == 0:
            raise CTMCError("initial distribution block is empty")
        return array, False

    def target_mask(self) -> np.ndarray:
        if self.target is None:
            raise CTMCError(f"{self.kind.value} request needs a target state set")
        return as_state_mask(self.chain, self.target)

    def safe_mask(self) -> np.ndarray:
        if self.safe is None:
            return np.ones(self.chain.num_states, dtype=bool)
        return as_state_mask(self.chain, self.safe)

    def reward_vector(self) -> np.ndarray:
        if self.rewards is None:
            raise CTMCError(f"{self.kind.value} request needs a reward vector")
        vector = np.asarray(self.rewards, dtype=float)
        if vector.shape != (self.chain.num_states,):
            raise CTMCError("reward vector has the wrong length")
        return vector


@dataclass
class MeasureResult:
    """The values computed for one :class:`MeasureRequest`.

    Attributes
    ----------
    request:
        The request this result answers.
    times:
        The request's grid (original order).
    values:
        ``(num_initials, len(times), num_states)`` for ``TRANSIENT``
        requests and ``(num_initials, len(times))`` for all scalar-valued
        kinds.  The leading axis is always present; :attr:`squeezed` drops
        it when the request supplied a single initial distribution.
    group_index:
        Index of the execution group that produced this result (results of
        equal ``group_index`` shared one uniformization sweep).
    lumped_states:
        Number of quotient states the group was solved on, or ``None`` when
        the group ran unlumped.
    """

    request: MeasureRequest
    times: np.ndarray
    values: np.ndarray
    group_index: int
    lumped_states: int | None = None
    _squeeze: bool = field(default=False, repr=False)

    @property
    def squeezed(self) -> np.ndarray:
        """``values`` without the batch axis if the request was unbatched."""
        return self.values[0] if self._squeeze else self.values

    def curve(self, initial_index: int = 0) -> np.ndarray:
        """The series for one initial distribution (shape ``(len(times),)``)."""
        return self.values[initial_index]
