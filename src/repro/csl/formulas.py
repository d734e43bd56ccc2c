"""Abstract syntax of CSL / CSRL formulas.

The logic implemented here is the fragment used by the paper (and a little
more), matching PRISM's syntax:

State formulas
    ``true``, ``false``, atomic propositions (labels), boolean combinators,
    ``P~p [ path ]`` (probability bound), ``S~p [ state ]`` (steady-state
    bound).

Query (top-level) formulas
    ``P=? [ path ]``, ``S=? [ state ]``, ``R{"name"}=? [ I=t ]``,
    ``R{"name"}=? [ C<=t ]``, ``R{"name"}=? [ S ]``.

Path formulas
    ``X phi``, ``phi U psi``, ``phi U[<=t] psi`` (and the derived
    ``F``/``F<=t``/``G``/``G<=t``).

All nodes are immutable dataclasses whose ``str()`` prints PRISM-compatible
concrete syntax, so formulas can be written straight into a PRISM
properties file (see :func:`repro.modules.prism_export.export_prism_properties`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional


class Formula:
    """Base class for state formulas."""

    __slots__ = ()

    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)

    def __invert__(self) -> "Formula":
        return Not(self)


class PathFormula:
    """Base class for path formulas."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# state formulas
# ---------------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class TrueFormula(Formula):
    def __str__(self) -> str:
        return "true"


@dataclass(frozen=True, slots=True)
class FalseFormula(Formula):
    def __str__(self) -> str:
        return "false"


@dataclass(frozen=True, slots=True)
class Atomic(Formula):
    """An atomic proposition — the name of a CTMC label."""

    name: str

    def __str__(self) -> str:
        return f'"{self.name}"'


@dataclass(frozen=True, slots=True)
class Not(Formula):
    operand: Formula

    def __str__(self) -> str:
        return f"!({self.operand})"


@dataclass(frozen=True, slots=True)
class And(Formula):
    left: Formula
    right: Formula

    def __str__(self) -> str:
        return f"({self.left} & {self.right})"


@dataclass(frozen=True, slots=True)
class Or(Formula):
    left: Formula
    right: Formula

    def __str__(self) -> str:
        return f"({self.left} | {self.right})"


@dataclass(frozen=True, slots=True)
class Implies(Formula):
    left: Formula
    right: Formula

    def __str__(self) -> str:
        return f"({self.left} => {self.right})"


_COMPARATORS = ("<", "<=", ">", ">=")


@dataclass(frozen=True, slots=True)
class ProbabilityBound(Formula):
    """``P~p [ path ]`` as a state formula (bounded probability operator)."""

    comparator: str
    bound: float
    path: PathFormula

    def __post_init__(self) -> None:
        if self.comparator not in _COMPARATORS:
            raise ValueError(f"invalid probability comparator {self.comparator!r}")

    def __str__(self) -> str:
        return f"P{self.comparator}{self.bound} [ {self.path} ]"


@dataclass(frozen=True, slots=True)
class SteadyStateBound(Formula):
    """``S~p [ phi ]`` as a state formula."""

    comparator: str
    bound: float
    state_formula: Formula

    def __post_init__(self) -> None:
        if self.comparator not in _COMPARATORS:
            raise ValueError(f"invalid steady-state comparator {self.comparator!r}")

    def __str__(self) -> str:
        return f"S{self.comparator}{self.bound} [ {self.state_formula} ]"


# ---------------------------------------------------------------------------
# path formulas
# ---------------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class Next(PathFormula):
    operand: Formula

    def __str__(self) -> str:
        return f"X {self.operand}"


@dataclass(frozen=True, slots=True)
class Until(PathFormula):
    """Unbounded until ``phi U psi``."""

    left: Formula
    right: Formula

    def __str__(self) -> str:
        return f"{self.left} U {self.right}"


@dataclass(frozen=True, slots=True)
class BoundedUntil(PathFormula):
    """Time-bounded until ``phi U[lower, upper] psi``.

    The common case ``U<=t`` is ``lower == 0``.
    """

    left: Formula
    right: Formula
    upper: float
    lower: float = 0.0

    def __post_init__(self) -> None:
        finite = math.isfinite(self.lower) and math.isfinite(self.upper)
        if not finite or self.lower < 0 or self.upper < self.lower:
            raise ValueError(
                f"invalid time interval [{self.lower}, {self.upper}] in bounded until"
            )

    def __str__(self) -> str:
        if self.lower == 0.0:
            return f"{self.left} U<={self.upper} {self.right}"
        return f"{self.left} U[{self.lower},{self.upper}] {self.right}"


def Eventually(operand: Formula, upper: Optional[float] = None) -> PathFormula:
    """``F phi`` / ``F<=t phi`` as sugar for an until with ``true`` on the left."""
    if upper is None:
        return Until(TrueFormula(), operand)
    return BoundedUntil(TrueFormula(), operand, upper)


def Globally(operand: Formula, upper: Optional[float] = None) -> PathFormula:
    """``G phi`` / ``G<=t phi``; handled by the checker as ``1 - P(F ¬phi)``."""
    return _Globally(operand, upper)


@dataclass(frozen=True, slots=True)
class _Globally(PathFormula):
    operand: Formula
    upper: Optional[float] = None

    def __str__(self) -> str:
        if self.upper is None:
            return f"G {self.operand}"
        return f"G<={self.upper} {self.operand}"


# ---------------------------------------------------------------------------
# top-level queries
# ---------------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class ProbabilityQuery:
    """``P=? [ path ]``."""

    path: PathFormula

    def __str__(self) -> str:
        return f"P=? [ {self.path} ]"


@dataclass(frozen=True, slots=True)
class SteadyStateQuery:
    """``S=? [ phi ]``."""

    state_formula: Formula

    def __str__(self) -> str:
        return f"S=? [ {self.state_formula} ]"


@dataclass(frozen=True, slots=True)
class InstantaneousReward:
    """The reward objective ``I=t``."""

    time: float

    def __str__(self) -> str:
        return f"I={self.time}"


@dataclass(frozen=True, slots=True)
class CumulativeReward:
    """The reward objective ``C<=t``."""

    time: float

    def __str__(self) -> str:
        return f"C<={self.time}"


@dataclass(frozen=True, slots=True)
class SteadyStateReward:
    """The reward objective ``S`` (long-run reward rate)."""

    def __str__(self) -> str:
        return "S"


@dataclass(frozen=True, slots=True)
class ReachabilityReward:
    """The reward objective ``F phi`` (expected reward until reaching ``phi``)."""

    target: Formula

    def __str__(self) -> str:
        return f"F {self.target}"


RewardObjective = InstantaneousReward | CumulativeReward | SteadyStateReward | ReachabilityReward


@dataclass(frozen=True, slots=True)
class RewardQuery:
    """``R{"name"}=? [ objective ]``."""

    objective: RewardObjective
    reward_name: Optional[str] = None

    def __str__(self) -> str:
        name = f'{{"{self.reward_name}"}}' if self.reward_name else ""
        return f"R{name}=? [ {self.objective} ]"


Query = ProbabilityQuery | SteadyStateQuery | RewardQuery
