"""Fault trees and quantitative service trees.

Arcade defines when a system is *down* through a fault tree over the failure
modes of its basic components.  The DSN 2010 paper additionally derives a
*quantitative service tree* from the fault tree by swapping AND and OR gates
and giving the gates a quantitative interpretation over service values in
``[0, 1]``:

* quantitative AND — the minimum of its inputs (a series bottleneck),
* quantitative OR — the average of its inputs (the delivered fraction of a
  redundant phase),
* voting / spare phases — the capped fraction ``min(1, Σ inputs / required)``,
  so that spare components "do not create extra service intervals"
  (Section 5 of the paper).

Fault-tree nodes evaluate over the *failed* component set; service-tree
nodes evaluate over the *up* component set and return an exact
:class:`~fractions.Fraction` in ``[0, 1]``.  The duality is implemented by
:meth:`FaultTree.to_service_tree`:

=====================  ============================================
fault-tree gate         dual service-tree gate
=====================  ============================================
basic event (failed)    component up value (0 or 1)
``Or``                  quantitative AND (minimum)
``And``                 quantitative OR (average)
``KOfN(k, n inputs)``   capped fraction with ``required = n - k + 1``
=====================  ============================================

Note that a plain ``Or`` over ``n`` basic events is the special case
``KOfN(1, n)``; its dual is the capped fraction with ``required = n``, i.e.
exactly the average — so the table above is consistent with the paper's
"substitute AND by OR and vice versa" description.

``evaluate`` answers for one set of components.  ``compile`` turns a tree
into array code that answers for every row of a (sets × components) matrix
at once, for :class:`~repro.arcade.model.FailedSetTable`: a basic event is
a column, ``Or``/``And`` are any/all and ``KOfN`` is a count of at least
``k``.  A compiled service tree computes Python-int numerators over one
common denominator of the tree: a component is 0 or 1, a minimum takes the
elementwise minimum, an average sums its children and multiplies the
denominator by the arity, and a capped fraction is ``min(sum, d·required)``
over ``d·required``.  No float and no fixed-width integer is involved, so
the levels equal ``evaluate``'s at any depth and size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Callable, Iterable, Mapping, Sequence, Set
from fractions import Fraction

import numpy as np

from repro.arcade.components import ArcadeModelError

#: A compiled fault tree: the down verdict of each row of a failed matrix.
DownColumn = Callable[[np.ndarray], np.ndarray]
#: A compiled service tree: each row's level, from a matrix of up components,
#: as a Python-int numerator (object dtype) over the tree's denominator.
LevelNumerators = Callable[[np.ndarray], np.ndarray]


# ---------------------------------------------------------------------------
# fault-tree nodes (evaluate over the set of FAILED components)
# ---------------------------------------------------------------------------
class FaultTreeNode:
    """Base class for fault-tree nodes."""

    __slots__ = ()

    def evaluate(self, failed: Set[str]) -> bool:
        """Whether this subtree's failure condition holds given ``failed``."""
        raise NotImplementedError

    def components(self) -> frozenset[str]:
        """The component names mentioned in the subtree."""
        raise NotImplementedError

    def to_service_node(self) -> "ServiceTreeNode":
        """The dual service-tree node (see module docstring)."""
        raise NotImplementedError

    def compile(self, column: Mapping[str, int]) -> DownColumn:
        """:meth:`evaluate` over every row of a failed matrix at once.

        ``column`` maps a component name to its column of the matrix.
        """
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class BasicEvent(FaultTreeNode):
    """The failure of a single component."""

    component: str

    def evaluate(self, failed: Set[str]) -> bool:
        return self.component in failed

    def components(self) -> frozenset[str]:
        return frozenset({self.component})

    def to_service_node(self) -> "ServiceTreeNode":
        return ComponentService(self.component)

    def compile(self, column: Mapping[str, int]) -> DownColumn:
        index = column[self.component]
        return lambda failed: failed[:, index]

    def __str__(self) -> str:
        return self.component


@dataclass(frozen=True, slots=True)
class Or(FaultTreeNode):
    """Failure of *any* child causes this subtree to fail."""

    children: tuple[FaultTreeNode, ...]

    def __init__(self, *children: FaultTreeNode | Iterable[FaultTreeNode]) -> None:
        object.__setattr__(self, "children", _flatten(children))
        if len(self.children) < 1:
            raise ArcadeModelError("an OR gate needs at least one child")

    def evaluate(self, failed: Set[str]) -> bool:
        return any(child.evaluate(failed) for child in self.children)

    def components(self) -> frozenset[str]:
        return frozenset().union(*(child.components() for child in self.children))

    def to_service_node(self) -> "ServiceTreeNode":
        return MinService(tuple(child.to_service_node() for child in self.children))

    def compile(self, column: Mapping[str, int]) -> DownColumn:
        children = [child.compile(column) for child in self.children]
        return lambda failed: np.logical_or.reduce([child(failed) for child in children])

    def __str__(self) -> str:
        return "OR(" + ", ".join(str(child) for child in self.children) + ")"


@dataclass(frozen=True, slots=True)
class And(FaultTreeNode):
    """Only the failure of *all* children causes this subtree to fail."""

    children: tuple[FaultTreeNode, ...]

    def __init__(self, *children: FaultTreeNode | Iterable[FaultTreeNode]) -> None:
        object.__setattr__(self, "children", _flatten(children))
        if len(self.children) < 1:
            raise ArcadeModelError("an AND gate needs at least one child")

    def evaluate(self, failed: Set[str]) -> bool:
        return all(child.evaluate(failed) for child in self.children)

    def components(self) -> frozenset[str]:
        return frozenset().union(*(child.components() for child in self.children))

    def to_service_node(self) -> "ServiceTreeNode":
        return AverageService(tuple(child.to_service_node() for child in self.children))

    def compile(self, column: Mapping[str, int]) -> DownColumn:
        children = [child.compile(column) for child in self.children]
        return lambda failed: np.logical_and.reduce([child(failed) for child in children])

    def __str__(self) -> str:
        return "AND(" + ", ".join(str(child) for child in self.children) + ")"


@dataclass(frozen=True, slots=True)
class KOfN(FaultTreeNode):
    """Voting gate: the subtree fails once at least ``k`` children have failed.

    With ``n`` children this models a phase that needs ``n - k + 1`` of its
    members to be operational (e.g. the "(3+1)" pump group of Line 1 fails
    once 2 of the 4 pumps have failed).
    """

    k: int
    children: tuple[FaultTreeNode, ...]

    def __init__(self, k: int, children: Iterable[FaultTreeNode]) -> None:
        object.__setattr__(self, "k", int(k))
        object.__setattr__(self, "children", _flatten([children]))
        if not 1 <= self.k <= len(self.children):
            raise ArcadeModelError(
                f"KOfN gate: k={self.k} must be between 1 and the number of children "
                f"({len(self.children)})"
            )

    @property
    def required_up(self) -> int:
        """Members that must be operational for the phase to deliver full service."""
        return len(self.children) - self.k + 1

    def evaluate(self, failed: Set[str]) -> bool:
        count = sum(1 for child in self.children if child.evaluate(failed))
        return count >= self.k

    def components(self) -> frozenset[str]:
        return frozenset().union(*(child.components() for child in self.children))

    def to_service_node(self) -> "ServiceTreeNode":
        return CappedFractionService(
            tuple(child.to_service_node() for child in self.children),
            required=self.required_up,
        )

    def compile(self, column: Mapping[str, int]) -> DownColumn:
        children = [child.compile(column) for child in self.children]
        k = self.k
        return lambda failed: np.count_nonzero([child(failed) for child in children], axis=0) >= k

    def __str__(self) -> str:
        return f"{self.k}-of-{len(self.children)}(" + ", ".join(
            str(child) for child in self.children
        ) + ")"


def _flatten(items: Iterable) -> tuple[FaultTreeNode, ...]:
    flattened: list[FaultTreeNode] = []
    for item in items:
        if isinstance(item, FaultTreeNode):
            flattened.append(item)
        elif isinstance(item, str):
            flattened.append(BasicEvent(item))
        else:
            for inner in item:
                if isinstance(inner, str):
                    flattened.append(BasicEvent(inner))
                elif isinstance(inner, FaultTreeNode):
                    flattened.append(inner)
                else:
                    raise ArcadeModelError(f"cannot use {inner!r} as a fault-tree child")
    return tuple(flattened)


# ---------------------------------------------------------------------------
# service-tree nodes (evaluate over the set of UP components, return [0, 1])
# ---------------------------------------------------------------------------
class ServiceTreeNode:
    """Base class for quantitative service-tree nodes."""

    __slots__ = ()

    def evaluate(self, up: Set[str]) -> Fraction:
        """The service level delivered by this subtree (an exact fraction)."""
        raise NotImplementedError

    def components(self) -> frozenset[str]:
        raise NotImplementedError

    def attainable_levels(self) -> frozenset[Fraction]:
        """All service values this subtree can possibly produce.

        Computed compositionally (without enumerating global states); used to
        derive the paper's service intervals X1, X2, ... exactly.
        """
        raise NotImplementedError

    def compile(self, column: Mapping[str, int]) -> tuple[int, LevelNumerators]:
        """:meth:`evaluate` over every row of an up matrix at once, exactly.

        ``column`` maps a component name to its column of the matrix, whose
        entries are the Python ints 0 and 1.  Returns a denominator and the
        function giving each row's level as a numerator over it.
        """
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class ComponentService(ServiceTreeNode):
    """Service contribution of a single component: 1 if up, 0 if failed."""

    component: str

    def evaluate(self, up: Set[str]) -> Fraction:
        return Fraction(1) if self.component in up else Fraction(0)

    def components(self) -> frozenset[str]:
        return frozenset({self.component})

    def attainable_levels(self) -> frozenset[Fraction]:
        return frozenset({Fraction(0), Fraction(1)})

    def compile(self, column: Mapping[str, int]) -> tuple[int, LevelNumerators]:
        index = column[self.component]
        return 1, lambda up: up[:, index]

    def __str__(self) -> str:
        return self.component


@dataclass(frozen=True, slots=True)
class MinService(ServiceTreeNode):
    """Quantitative AND: the bottleneck (minimum) of the children."""

    children: tuple[ServiceTreeNode, ...]

    def evaluate(self, up: Set[str]) -> Fraction:
        return min(child.evaluate(up) for child in self.children)

    def components(self) -> frozenset[str]:
        return frozenset().union(*(child.components() for child in self.children))

    def attainable_levels(self) -> frozenset[Fraction]:
        # The minimum of independent children can attain any child level that
        # is <= the maximum of every other child; since every child can reach
        # 1 and 0, the union of all child levels is attainable (and 0 always is).
        levels: set[Fraction] = set()
        for child in self.children:
            levels |= child.attainable_levels()
        return frozenset(levels)

    def compile(self, column: Mapping[str, int]) -> tuple[int, LevelNumerators]:
        denominator, children = _over_common_denominator(self.children, column)
        return denominator, lambda up: np.minimum.reduce([child(up) for child in children])

    def __str__(self) -> str:
        return "MIN(" + ", ".join(str(child) for child in self.children) + ")"


@dataclass(frozen=True, slots=True)
class AverageService(ServiceTreeNode):
    """Quantitative OR: the average of the children (delivered fraction)."""

    children: tuple[ServiceTreeNode, ...]

    def evaluate(self, up: Set[str]) -> Fraction:
        total = sum((child.evaluate(up) for child in self.children), Fraction(0))
        return total / len(self.children)

    def components(self) -> frozenset[str]:
        return frozenset().union(*(child.components() for child in self.children))

    def attainable_levels(self) -> frozenset[Fraction]:
        sums = {Fraction(0)}
        for child in self.children:
            child_levels = child.attainable_levels()
            sums = {existing + level for existing in sums for level in child_levels}
        return frozenset(total / len(self.children) for total in sums)

    def compile(self, column: Mapping[str, int]) -> tuple[int, LevelNumerators]:
        denominator, children = _over_common_denominator(self.children, column)
        return denominator * len(children), lambda up: sum(child(up) for child in children)

    def __str__(self) -> str:
        return "AVG(" + ", ".join(str(child) for child in self.children) + ")"


@dataclass(frozen=True, slots=True)
class CappedFractionService(ServiceTreeNode):
    """Spare/voting phase: ``min(1, Σ children / required)``.

    ``required`` is the number of members needed for full service; surplus
    (spare) members raise reliability but not the service level, so they do
    not create additional service intervals.
    """

    children: tuple[ServiceTreeNode, ...]
    required: int

    def evaluate(self, up: Set[str]) -> Fraction:
        total = sum((child.evaluate(up) for child in self.children), Fraction(0))
        return min(Fraction(1), total / self.required)

    def components(self) -> frozenset[str]:
        return frozenset().union(*(child.components() for child in self.children))

    def attainable_levels(self) -> frozenset[Fraction]:
        sums = {Fraction(0)}
        for child in self.children:
            child_levels = child.attainable_levels()
            sums = {existing + level for existing in sums for level in child_levels}
        return frozenset(min(Fraction(1), total / self.required) for total in sums)

    def compile(self, column: Mapping[str, int]) -> tuple[int, LevelNumerators]:
        denominator, children = _over_common_denominator(self.children, column)
        cap = denominator * self.required
        return cap, lambda up: np.minimum(sum(child(up) for child in children), cap)

    def __str__(self) -> str:
        return (
            f"CAP[{self.required}](" + ", ".join(str(child) for child in self.children) + ")"
        )


def _over_common_denominator(
    children: Sequence[ServiceTreeNode], column: Mapping[str, int]
) -> tuple[int, list[LevelNumerators]]:
    """The children compiled over the least common multiple of their denominators."""
    compiled = [child.compile(column) for child in children]
    denominator = math.lcm(*(child_denominator for child_denominator, _ in compiled))
    return denominator, [
        numerators
        if child_denominator == denominator
        else _scaled(numerators, denominator // child_denominator)
        for child_denominator, numerators in compiled
    ]


def _scaled(numerators: LevelNumerators, factor: int) -> LevelNumerators:
    return lambda up: numerators(up) * factor


def service_threshold(threshold: float | Fraction) -> Fraction:
    """The exact service level a target threshold stands for.

    A float is read as the nearest fraction with a denominator of at most
    10**6, so ``2/3`` rounded to 7 decimals still selects the states at
    level ``2/3``.
    """
    if isinstance(threshold, Fraction):
        return threshold
    return Fraction(threshold).limit_denominator(10**6)


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FaultTree:
    """A fault tree: the system is *down* in states where the root evaluates true."""

    root: FaultTreeNode
    name: str = "system_down"

    def is_down(self, failed: Iterable[str]) -> bool:
        """Whether the system is down when exactly ``failed`` components are failed."""
        return self.root.evaluate(frozenset(failed))

    def is_operational(self, failed: Iterable[str]) -> bool:
        return not self.is_down(failed)

    def compile(self, names: Sequence[str]) -> DownColumn:
        """:meth:`is_down` of each row of a failed matrix with one column per name."""
        return self.root.compile({name: index for index, name in enumerate(names)})

    def components(self) -> frozenset[str]:
        return self.root.components()

    def to_service_tree(self) -> "ServiceTree":
        """Derive the quantitative service tree by gate dualisation."""
        return ServiceTree(self.root.to_service_node(), name=f"{self.name}_service")

    def __str__(self) -> str:
        return str(self.root)


@dataclass(frozen=True)
class ServiceTree:
    """A quantitative service tree mapping component states to a level in [0, 1]."""

    root: ServiceTreeNode
    name: str = "service"

    def service_level(self, up: Iterable[str]) -> Fraction:
        """The exact service level when exactly ``up`` components are operational."""
        return self.root.evaluate(frozenset(up))

    def compile(self, names: Sequence[str]) -> tuple[int, LevelNumerators]:
        """:meth:`service_level` of each row of an up matrix with one column per name.

        Returns the tree's denominator and the function giving each row's
        level as a Python-int numerator over it (see
        :meth:`ServiceTreeNode.compile`).
        """
        return self.root.compile({name: index for index, name in enumerate(names)})

    def delivers_service(self, up: Iterable[str]) -> bool:
        """Whether *some* service is delivered (level strictly positive)."""
        return self.service_level(up) > 0

    def components(self) -> frozenset[str]:
        return self.root.components()

    def attainable_levels(self) -> tuple[Fraction, ...]:
        """All attainable service levels, sorted ascending (includes 0 and 1)."""
        return tuple(sorted(self.root.attainable_levels()))

    def service_intervals(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """The paper's service intervals ``X1, X2, ...``.

        Consecutive positive attainable levels bound half-open intervals
        ``[level_i, level_{i+1})``; the final interval is the degenerate
        ``[1, 1]``.  Every threshold ``x`` inside one interval yields the same
        set ``S_{sl(x)}`` and hence the same survivability curve.
        """
        levels = [level for level in self.attainable_levels() if level > 0]
        intervals: list[tuple[Fraction, Fraction]] = []
        for index, level in enumerate(levels):
            if level == 1:
                intervals.append((Fraction(1), Fraction(1)))
            else:
                intervals.append((level, levels[index + 1]))
        return tuple(intervals)

    def __str__(self) -> str:
        return str(self.root)
