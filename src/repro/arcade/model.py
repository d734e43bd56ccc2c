"""The Arcade model container.

An :class:`ArcadeModel` bundles the elements of an Arcade specification —
basic components, repair units, spare management units, the fault tree and
cost annotations — validates their mutual consistency, and offers the
queries that the state-space generators and translators need (effective
failure rates, service levels, disaster states, ...).  A
:class:`FailedSetTable` evaluates what each set of failed components means,
once per set, for the state-space builder, the simulator and the CTMDP.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from collections.abc import Collection, Iterable, Mapping, Sequence
from fractions import Fraction

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
        self,
        failed_components: Iterable[str],
        busy_crews_per_unit: Mapping[str, int],
        component_cost: float | None = None,
    ) -> float:
        """Hourly cost of a state: components in model order, then crews in unit order.

        Pass ``component_cost`` when :meth:`component_cost_rate` is known.
        """
        if component_cost is None:
            component_cost = self.component_cost_rate(set(failed_components))
        total = component_cost
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

    def with_cost_model(self, cost_model: CostModel) -> "ArcadeModel":
        return replace(self, cost_model=cost_model)

    def with_disasters(self, disasters: Iterable[Disaster]) -> "ArcadeModel":
        return replace(self, disasters=tuple(disasters))

    def strategy_label(self) -> str:
        """A short label describing the repair configuration (e.g. ``"FRF-2"``)."""
        labels = sorted({unit.label for unit in self.repair_units})
        return "+".join(labels) if labels else "none"


@dataclass(frozen=True)
class FailedSet:
    """What one set of failed components means in a model.

    A state's failure rates, labels, service level and component cost depend
    only on its failed set, so :class:`FailedSetTable` evaluates each distinct
    set once.  ``failure_rates`` pairs every up component whose effective rate
    is positive with that rate, in model order; ``down`` is ``None`` without a
    fault tree; ``component_cost`` is :meth:`ArcadeModel.component_cost_rate`.
    """

    failed: frozenset[str]
    failure_rates: tuple[tuple[str, float], ...]
    down: bool | None
    service_level: Fraction
    component_cost: float


class FailedSetTable(dict[frozenset[str], FailedSet]):
    """The :class:`FailedSet` of each failed set, evaluated on first lookup.

    Scope a table to one build, one simulator or one CTMDP, so that no
    cached state space keeps its rows alive.
    """

    def __init__(self, model: ArcadeModel) -> None:
        super().__init__()
        self.model = model
        self.service_tree = model.effective_service_tree()

    def __missing__(self, failed: frozenset[str]) -> FailedSet:
        model = self.model
        up = tuple(name for name in model.component_names if name not in failed)
        rates = []
        for name in up:
            rate = model.effective_failure_rate(name, up)
            if rate > 0.0:
                rates.append((name, rate))
        row = self[failed] = FailedSet(
            failed=failed,
            failure_rates=tuple(rates),
            down=model.is_down(failed) if model.fault_tree is not None else None,
            service_level=self.service_tree.service_level(up),
            component_cost=model.component_cost_rate(failed),
        )
        return row
