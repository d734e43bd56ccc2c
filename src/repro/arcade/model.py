"""The Arcade model container.

An :class:`ArcadeModel` bundles the elements of an Arcade specification —
basic components, repair units, spare management units, the fault tree and
cost annotations — validates their mutual consistency, and offers the
queries that the state-space generators and translators need (effective
failure rates, service levels, disaster states, ...).  A
:class:`FailedSetTable` evaluates what sets of failed components mean (failure
rates, fault-tree verdict, exact service level, costs) a batch at a time,
into one column array per quantity, for the state-space builder, the
simulator and the CTMDP; the scalar queries of :class:`ArcadeModel` give the
same values one set at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from collections.abc import Collection, Iterable, Mapping, Sequence
from fractions import Fraction

import numpy as np

from repro.arcade.components import ArcadeModelError, BasicComponent
from repro.arcade.costs import CostModel
from repro.arcade.fault_tree import FaultTree, ServiceTree
from repro.arcade.repair import RepairStrategy, RepairUnit
from repro.arcade.spares import SpareManagementUnit


@dataclass(frozen=True)
class Disaster:
    """A named disaster: the set of components that have failed simultaneously.

    Survivability is analysed on Given-Occurrence-Of-Disaster (GOOD) models
    that *start* in the state induced by a disaster (Section 3 of the paper).
    """

    name: str
    failed_components: tuple[str, ...]
    description: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "failed_components", tuple(self.failed_components))
        if not self.failed_components:
            raise ArcadeModelError(f"disaster {self.name!r} needs at least one failed component")
        if len(set(self.failed_components)) != len(self.failed_components):
            raise ArcadeModelError(f"disaster {self.name!r} lists a component twice")


@dataclass(frozen=True)
class ArcadeModel:
    """A complete Arcade dependability model.

    Parameters
    ----------
    name:
        Model name (used in reports and XML round-trips).
    components:
        The basic components.
    repair_units:
        The repair units; each component may be covered by at most one unit.
        Components not covered by any unit are never repaired.
    spare_units:
        Spare management units (may be empty).
    fault_tree:
        Defines when the system is down.  The quantitative service tree is
        derived from it unless ``service_tree`` is given explicitly.
    cost_model:
        Cost annotations (defaults to the paper's values).
    disasters:
        Named disaster scenarios for survivability analysis.
    service_tree:
        Optional explicit service tree (otherwise derived from the fault
        tree by gate dualisation).
    """

    name: str
    components: tuple[BasicComponent, ...]
    repair_units: tuple[RepairUnit, ...] = ()
    spare_units: tuple[SpareManagementUnit, ...] = ()
    fault_tree: FaultTree | None = None
    cost_model: CostModel = field(default_factory=CostModel.paper_default)
    disasters: tuple[Disaster, ...] = ()
    service_tree: ServiceTree | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "repair_units", tuple(self.repair_units))
        object.__setattr__(self, "spare_units", tuple(self.spare_units))
        object.__setattr__(self, "disasters", tuple(self.disasters))
        self.validate()

    # ------------------------------------------------------------------
    # validation and lookups
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check cross-references between the model's elements."""
        if not self.name:
            raise ArcadeModelError("an Arcade model needs a non-empty name")
        if not self.components:
            raise ArcadeModelError(f"model {self.name!r} has no components")
        names = [component.name for component in self.components]
        duplicates = {name for name in names if names.count(name) > 1}
        if duplicates:
            raise ArcadeModelError(f"duplicate component names: {sorted(duplicates)}")
        known = set(names)

        covered: dict[str, str] = {}
        for unit in self.repair_units:
            for component_name in unit.components:
                if component_name not in known:
                    raise ArcadeModelError(
                        f"repair unit {unit.name!r} references unknown component {component_name!r}"
                    )
                if component_name in covered:
                    raise ArcadeModelError(
                        f"component {component_name!r} is covered by repair units "
                        f"{covered[component_name]!r} and {unit.name!r}"
                    )
                covered[component_name] = unit.name
        unit_names = [unit.name for unit in self.repair_units]
        if len(set(unit_names)) != len(unit_names):
            raise ArcadeModelError("duplicate repair unit names")

        spare_covered: dict[str, str] = {}
        for unit in self.spare_units:
            for component_name in unit.components:
                if component_name not in known:
                    raise ArcadeModelError(
                        f"spare unit {unit.name!r} references unknown component {component_name!r}"
                    )
                if component_name in spare_covered:
                    raise ArcadeModelError(
                        f"component {component_name!r} is managed by spare units "
                        f"{spare_covered[component_name]!r} and {unit.name!r}"
                    )
                spare_covered[component_name] = unit.name

        if self.fault_tree is not None:
            unknown = self.fault_tree.components() - known
            if unknown:
                raise ArcadeModelError(
                    f"fault tree references unknown components {sorted(unknown)}"
                )
        if self.service_tree is not None:
            unknown = self.service_tree.components() - known
            if unknown:
                raise ArcadeModelError(
                    f"service tree references unknown components {sorted(unknown)}"
                )
        for disaster in self.disasters:
            unknown = set(disaster.failed_components) - known
            if unknown:
                raise ArcadeModelError(
                    f"disaster {disaster.name!r} references unknown components {sorted(unknown)}"
                )

    # ------------------------------------------------------------------
    @property
    def component_names(self) -> tuple[str, ...]:
        return tuple(component.name for component in self.components)

    def components_by_name(self) -> dict[str, BasicComponent]:
        return {component.name: component for component in self.components}

    def component(self, name: str) -> BasicComponent:
        for component in self.components:
            if component.name == name:
                return component
        raise ArcadeModelError(f"unknown component {name!r} in model {self.name!r}")

    def repair_unit_of(self, component_name: str) -> RepairUnit | None:
        """The repair unit responsible for a component (``None`` if unrepaired)."""
        for unit in self.repair_units:
            if unit.covers(component_name):
                return unit
        return None

    def spare_unit_of(self, component_name: str) -> SpareManagementUnit | None:
        for unit in self.spare_units:
            if unit.covers(component_name):
                return unit
        return None

    def disaster(self, name: str) -> Disaster:
        for disaster in self.disasters:
            if disaster.name == name:
                return disaster
        raise ArcadeModelError(f"unknown disaster {name!r} in model {self.name!r}")

    def effective_service_tree(self) -> ServiceTree:
        """The explicit service tree, or the dual of the fault tree."""
        if self.service_tree is not None:
            return self.service_tree
        if self.fault_tree is None:
            raise ArcadeModelError(
                f"model {self.name!r} has neither a service tree nor a fault tree"
            )
        return self.fault_tree.to_service_tree()

    # ------------------------------------------------------------------
    # state-level queries (shared by the state-space generator and simulator)
    # ------------------------------------------------------------------
    def effective_failure_rate(self, component_name: str, up_components: Iterable[str]) -> float:
        """Failure rate of an (up) component given which components are up.

        Components managed by a spare unit use their dormant rate while not
        activated; all other components always use their active rate.
        """
        component = self.component(component_name)
        spare_unit = self.spare_unit_of(component_name)
        if spare_unit is None:
            return component.failure_rate
        return spare_unit.failure_rate(component, up_components)

    def is_down(self, failed_components: Iterable[str]) -> bool:
        """Whether the fault tree declares the system down."""
        if self.fault_tree is None:
            raise ArcadeModelError(f"model {self.name!r} has no fault tree")
        return self.fault_tree.is_down(failed_components)

    def service_level(self, failed_components: Iterable[str]) -> Fraction:
        """Quantitative service level of a state given its failed components."""
        failed = set(failed_components)
        up = [name for name in self.component_names if name not in failed]
        return self.effective_service_tree().service_level(up)

    def component_cost_rate(self, failed_components: Collection[str]) -> float:
        """Hourly cost of the components alone, summed in model order."""
        total = 0.0
        for component in self.components:
            if component.name in failed_components:
                total += self.cost_model.down_cost(component.name)
            else:
                total += self.cost_model.up_cost(component.name)
        return total

    def state_cost_rate(
        self, failed_components: Iterable[str], busy_crews_per_unit: Mapping[str, int]
    ) -> float:
        """Hourly cost of a state: components in model order, then crews in unit order."""
        total = self.component_cost_rate(set(failed_components))
        for unit in self.repair_units:
            busy = busy_crews_per_unit.get(unit.name, 0)
            idle = unit.effective_crews() - busy
            total += self.cost_model.crew_cost(idle, busy)
        return total

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def with_repair_strategy(
        self,
        strategy: RepairStrategy | str,
        crews: int | None = None,
        unit_names: Sequence[str] | None = None,
    ) -> "ArcadeModel":
        """Return a copy in which repair units use a different strategy.

        This is how the experiments sweep over DED / FRF-k / FFF-k: one base
        model, re-instantiated per strategy.
        """
        selected = set(unit_names) if unit_names is not None else None
        updated = tuple(
            unit.with_strategy(strategy, crews)
            if selected is None or unit.name in selected
            else unit
            for unit in self.repair_units
        )
        return replace(self, repair_units=updated)

    def strategy_label(self) -> str:
        """A short label describing the repair configuration (e.g. ``"FRF-2"``)."""
        labels = sorted({unit.label for unit in self.repair_units})
        return "+".join(labels) if labels else "none"


class FailedSetTable:
    """What sets of failed components mean in a model, one column array each.

    A state's failure rates, fault-tree verdict, service level and cost
    depend only on its failed set.  :meth:`add` evaluates a batch of sets,
    the rows of a (sets × components) boolean matrix in model order, and
    numbers them on from ``len(table)``.  The columns, indexed by that id:

    * ``failed``: the sets themselves;
    * ``rates``: each component's effective failure rate, 0 once failed;
    * ``down``: the fault-tree verdict (``None`` without a fault tree);
    * ``level_ids``: the position of the exact service level in
      :attr:`levels`, numbered by first appearance over the ids;
    * ``component_cost`` and ``cost``: :meth:`ArcadeModel.component_cost_rate`
      and :meth:`ArcadeModel.state_cost_rate` with ``min(crews, failed
      members)`` busy crews per unit (a unit's queue holds exactly its
      failed members).

    Each column equals the scalar query: the costs add the same floats in
    the same order, and the levels are exact.  Scope a table to one build,
    one simulator or one CTMDP, so that no cached state space keeps its
    columns alive.
    """

    def __init__(self, model: ArcadeModel) -> None:
        self.model = model
        names = model.component_names
        position = {name: index for index, name in enumerate(names)}
        components = model.components
        self._active_rates = np.array([component.failure_rate for component in components])
        # Each spare unit's columns in preference order, its required count
        # and its members' dormant rates.
        self._spare_units = []
        for unit in model.spare_units:
            columns = [position[name] for name in unit.components]
            dormant_rates = [components[column].dormant_failure_rate for column in columns]
            self._spare_units.append((columns, unit.required, np.array(dormant_rates)))
        self._down = model.fault_tree.compile(names) if model.fault_tree is not None else None
        self.denominator, self._numerators = model.effective_service_tree().compile(names)
        costs = model.cost_model
        self._component_costs = [(costs.up_cost(name), costs.down_cost(name)) for name in names]
        self._units = [
            ([position[name] for name in unit.components], unit.effective_crews())
            for unit in model.repair_units
        ]

        self.failed = np.zeros((0, len(names)), dtype=bool)
        self.rates = np.zeros((0, len(names)))
        self.down: np.ndarray | None = None if self._down is None else np.zeros(0, dtype=bool)
        self.level_ids = np.zeros(0, dtype=np.intp)
        #: The distinct exact service levels, in order of first appearance.
        self.levels: list[Fraction] = []
        self._level_of: dict[int, int] = {}
        self.component_cost = np.zeros(0)
        self.cost = np.zeros(0)

    def __len__(self) -> int:
        return len(self.failed)

    def add(self, failed: np.ndarray) -> None:
        """Evaluate the failed sets given as the rows of a boolean matrix."""
        up = ~failed
        # An up member of a spare unit beyond its first ``required`` up
        # members, in preference order, fails at its dormant rate.
        rates = np.where(up, self._active_rates, 0.0)
        for columns, required, dormant_rates in self._spare_units:
            members = up[:, columns]
            dormant = members & (np.cumsum(members, axis=1) > required)
            rates[:, columns] = np.where(dormant, dormant_rates, rates[:, columns])

        numerators = self._numerators(up.astype(np.intp).astype(object)).tolist()
        level_of = self._level_of
        for numerator in dict.fromkeys(numerators):
            if numerator not in level_of:
                level_of[numerator] = len(self.levels)
                self.levels.append(Fraction(numerator, self.denominator))

        # Component by component in model order, as component_cost_rate adds.
        component_cost = np.zeros(len(failed))
        for column, (up_cost, down_cost) in enumerate(self._component_costs):
            component_cost += np.where(failed[:, column], down_cost, up_cost)
        busy = np.zeros((len(failed), len(self._units)), dtype=np.intp)
        for unit, (columns, crews) in enumerate(self._units):
            busy[:, unit] = np.minimum(crews, np.count_nonzero(failed[:, columns], axis=1))

        self.failed = np.concatenate([self.failed, failed])
        self.rates = np.concatenate([self.rates, rates])
        if self._down is not None:
            self.down = np.concatenate([self.down, self._down(failed)])
        self.level_ids = np.concatenate(
            [
                self.level_ids,
                np.fromiter(map(level_of.__getitem__, numerators), np.intp, len(numerators)),
            ]
        )
        self.component_cost = np.concatenate([self.component_cost, component_cost])
        self.cost = np.concatenate([self.cost, self.with_crew_costs(component_cost, busy)])

    def with_crew_costs(self, component_cost: np.ndarray, busy: np.ndarray) -> np.ndarray:
        """``component_cost`` plus each repair unit's crew cost, in unit order.

        ``busy[:, u]`` is the number of busy crews of unit ``u``; the sums
        are those of :meth:`ArcadeModel.state_cost_rate`.
        """
        costs = self.model.cost_model
        total = component_cost.copy()
        for (_, crews), unit_busy in zip(self._units, busy.T):
            total += (crews - unit_busy) * costs.crew_idle_cost + unit_busy * costs.crew_busy_cost
        return total
