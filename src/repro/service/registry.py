"""Named scenario specs: the paper's strategy × disaster × service grid.

A :class:`ScenarioSpec` declares a *family* of measure curves — a measure
kind, one or more facility lines, repair-strategy configurations, disasters
and service intervals, over a time grid — without touching any chain.
:meth:`ScenarioSpec.expand` turns the spec into concrete
:class:`repro.analysis.MeasureRequest` objects (building or reusing the
cached case-study state spaces), which is what the scenario service
consumes; every request is tagged ``(scenario, line, strategy, ...)`` so
clients can reassemble their curves.

:func:`paper_registry` is the one definition of the paper's Table 2 and
Figs. 3-11: ``python -m repro``, ``serve`` and ``POST /scenario`` all expand
it, and :mod:`repro.casestudy.experiments` renders the tables and figures
from its tagged results.  User-defined specs are added with
:meth:`ScenarioRegistry.register`.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, fields, replace

import numpy as np

from repro.analysis import MeasureRequest
from repro.arcade.repair import RepairStrategy
from repro.casestudy.experiments import line_service_interval_lower, line_state_space
from repro.casestudy.facility import (
    DISASTER_1,
    DISASTER_2,
    LINE1,
    LINE2,
    PAPER_STRATEGIES,
    StrategyConfiguration,
)
from repro.measures import (
    accumulated_cost_request,
    instantaneous_cost_request,
    steady_state_availability_request,
    survivability_request,
    unreliability_request,
)

#: The strategy subset of Figs. 4-7 (Line 1, Disaster 1).
LINE1_SURVIVABILITY_STRATEGIES = (
    StrategyConfiguration(RepairStrategy.DEDICATED, 1),
    StrategyConfiguration(RepairStrategy.FASTEST_REPAIR_FIRST, 1),
    StrategyConfiguration(RepairStrategy.FASTEST_REPAIR_FIRST, 2),
)

#: The strategy subset of Figs. 10/11 (Line 2 costs).
LINE2_COST_STRATEGIES = (
    StrategyConfiguration(RepairStrategy.FASTEST_FAILURE_FIRST, 1),
    StrategyConfiguration(RepairStrategy.FASTEST_FAILURE_FIRST, 2),
    StrategyConfiguration(RepairStrategy.FASTEST_REPAIR_FIRST, 1),
    StrategyConfiguration(RepairStrategy.FASTEST_REPAIR_FIRST, 2),
)

#: The most points a requested time grid may have: 100 times the finest
#: registry grid (101 points).  ``--points`` and ``POST /scenario`` reject
#: more, before any grid is allocated.
MAX_GRID_POINTS = 10_001

#: Measure families a spec may declare.  ``availability`` is the long-run
#: member: it expands to time-grid-free ``STEADY_STATE`` requests that ride
#: the cached linear-solver engine instead of uniformization sweeps.
MEASURES = (
    "survivability",
    "unreliability",
    "instantaneous_cost",
    "accumulated_cost",
    "availability",
    "optimized_survivability",
    "optimized_accumulated_cost",
)


@dataclass(frozen=True)
class ScenarioSpec:
    """One named family of measure curves over the case-study grid.

    Attributes
    ----------
    name:
        Registry key (also the first element of every expanded request's
        ``tag``).
    measure:
        One of :data:`MEASURES`.
    lines:
        Facility lines to evaluate (``"line1"``/``"line2"``).
    strategies:
        Repair configurations to sweep.
    disasters:
        Disaster names (survivability and cost measures; ignored for
        unreliability, which starts from the fully-up state).
    interval_indices:
        Service intervals (X1, X2, ... as indices) for survivability.
    horizon, points:
        The evenly spaced time grid ``linspace(0, horizon, points)``.
    """

    name: str
    measure: str
    lines: tuple[str, ...]
    strategies: tuple[StrategyConfiguration, ...]
    disasters: tuple[str, ...] = ()
    interval_indices: tuple[int, ...] = (0,)
    horizon: float = 100.0
    points: int = 101
    description: str = ""

    def __post_init__(self) -> None:
        if self.measure not in MEASURES:
            raise ValueError(
                f"unknown measure {self.measure!r}; expected one of {MEASURES}"
            )

    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """A JSON-serialisable summary of the spec (served by ``GET /registry``)."""
        return {
            "name": self.name,
            "measure": self.measure,
            "lines": list(self.lines),
            "strategies": [configuration.label for configuration in self.strategies],
            "disasters": list(self.disasters),
            "interval_indices": list(self.interval_indices),
            "horizon": self.horizon,
            "points": self.points,
            "description": self.description,
        }

    def times(self, points: int | None = None) -> np.ndarray:
        return np.linspace(0.0, self.horizon, points if points else self.points)

    def expand(self, points: int | None = None) -> list[MeasureRequest]:
        """Concrete measure requests for every curve of the family."""
        grid = self.times(points)
        requests: list[MeasureRequest] = []
        if self.measure.startswith("optimized_"):
            # Optimized-vs-fixed curves: the rollout optimizer runs (memoized)
            # per cell and each policy becomes one ordinary request.
            from repro.optimize.scenario import expand_optimized

            return expand_optimized(self, grid)
        if self.measure == "availability":
            # Long-run measure: no time grid; the points override is moot.
            for line in self.lines:
                for configuration in self.strategies:
                    requests.append(
                        steady_state_availability_request(
                            line_state_space(line, configuration),
                            tag=(self.name, line, configuration.label),
                        )
                    )
            return requests
        if self.measure == "unreliability":
            for line in self.lines:
                for configuration in self.strategies:
                    requests.append(
                        unreliability_request(
                            line_state_space(line, configuration, with_repairs=False),
                            grid,
                            tag=(self.name, line, configuration.label),
                        )
                    )
            return requests
        if self.measure == "survivability":
            for line in self.lines:
                for interval_index in self.interval_indices:
                    threshold = line_service_interval_lower(line, interval_index)
                    for disaster in self.disasters:
                        for configuration in self.strategies:
                            requests.append(
                                survivability_request(
                                    line_state_space(line, configuration),
                                    disaster,
                                    threshold,
                                    grid,
                                    tag=(
                                        self.name,
                                        line,
                                        disaster,
                                        interval_index,
                                        configuration.label,
                                    ),
                                )
                            )
            return requests
        builder = (
            instantaneous_cost_request
            if self.measure == "instantaneous_cost"
            else accumulated_cost_request
        )
        for line in self.lines:
            for disaster in self.disasters:
                for configuration in self.strategies:
                    requests.append(
                        builder(
                            line_state_space(line, configuration),
                            grid,
                            disaster,
                            tag=(self.name, line, disaster, configuration.label),
                        )
                    )
        return requests


@dataclass(frozen=True)
class ScenarioExpansion:
    """One family expanded on one grid, as the ``scenario`` cache kind holds it.

    Every POST of the family shares these requests, so their array fields
    are read-only views.  ``payloads`` are the requests' wire forms on the
    sharded front (empty in process).
    """

    requests: tuple[MeasureRequest, ...]
    payloads: tuple[bytes | Exception, ...] = ()

    @property
    def nbytes(self) -> int:
        """Bytes of the request arrays and wire payloads held."""
        arrays = sum(
            array.nbytes
            for request in self.requests
            for array in _array_fields(request).values()
        )
        return arrays + sum(len(data) for data in self.payloads if isinstance(data, bytes))


def _array_fields(request: MeasureRequest) -> dict[str, np.ndarray]:
    values = {field.name: getattr(request, field.name) for field in fields(request)}
    return {name: value for name, value in values.items() if isinstance(value, np.ndarray)}


def _read_only(request: MeasureRequest) -> MeasureRequest:
    """A copy of ``request`` whose array fields are read-only views."""
    views = {name: array.view() for name, array in _array_fields(request).items()}
    for view in views.values():
        view.flags.writeable = False
    return replace(request, **views)


class ScenarioRegistry:
    """Named scenario specs; pre-populate with :func:`paper_registry`."""

    def __init__(self, specs: Iterable[ScenarioSpec] = ()) -> None:
        self._specs: dict[str, ScenarioSpec] = {}
        for spec in specs:
            self.register(spec)

    def register(self, spec: ScenarioSpec, replace_existing: bool = False) -> None:
        """Add a (user-defined) spec; refuses to shadow unless asked to."""
        if spec.name in self._specs and not replace_existing:
            raise ValueError(f"scenario {spec.name!r} is already registered")
        self._specs[spec.name] = spec

    def get(self, name: str) -> ScenarioSpec:
        try:
            return self._specs[name]
        except KeyError:
            raise KeyError(
                f"unknown scenario {name!r}; known: {', '.join(self.names) or '(none)'}"
            ) from None

    def expand(self, name: str, points: int | None = None) -> list[MeasureRequest]:
        """Expand the named spec into measure requests."""
        return self.get(name).expand(points=points)

    def expansion(self, spec: ScenarioSpec, points: int | None = None) -> ScenarioExpansion:
        """``spec``'s requests, read-only, through :meth:`expand`.

        ``spec`` is the registered spec a service keyed its cache entry
        with; if its name was re-registered meanwhile, ``spec`` itself is
        expanded, so the entry never holds another spec's family.
        """
        requests = self.expand(spec.name, points=points)
        if self._specs.get(spec.name) is not spec:
            requests = spec.expand(points=points)
        return ScenarioExpansion(tuple(_read_only(request) for request in requests))

    def with_points(self, name: str, points: int) -> ScenarioSpec:
        """A copy of the named spec on a coarser/finer grid."""
        return replace(self.get(name), points=points)

    def describe(self) -> list[dict]:
        """JSON-serialisable summaries of every registered spec."""
        return [spec.describe() for spec in self._specs.values()]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._specs)

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __len__(self) -> int:
        return len(self._specs)


def paper_registry(include_optimized: bool = False) -> ScenarioRegistry:
    """The paper's figure families as ready-to-expand scenario specs.

    With ``include_optimized=True`` the registry also carries the
    ``optimized_*`` families, whose expansion runs the rollout policy
    optimizer (memoized process-wide) and reports the optimized curve next
    to the paper's fixed strategies.  They stay opt-in because expanding
    them is orders of magnitude more expensive than the figure families.
    """
    registry = ScenarioRegistry(
        (
            ScenarioSpec(
                name="table2",
                measure="availability",
                lines=(LINE1, LINE2),
                strategies=PAPER_STRATEGIES,
                description=(
                    "Steady-state availability per repair strategy (both lines)"
                ),
            ),
            ScenarioSpec(
                name="fig3",
                measure="unreliability",
                lines=(LINE1, LINE2),
                strategies=(StrategyConfiguration(RepairStrategy.DEDICATED, 1),),
                horizon=1000.0,
                points=101,
                description="Reliability of both lines over time (no repairs)",
            ),
            ScenarioSpec(
                name="fig4_5",
                measure="survivability",
                lines=(LINE1,),
                strategies=LINE1_SURVIVABILITY_STRATEGIES,
                disasters=(DISASTER_1,),
                interval_indices=(0, 1),
                horizon=4.5,
                points=91,
                description="Line 1 recovery to X1/X2 after Disaster 1",
            ),
            ScenarioSpec(
                name="fig6",
                measure="instantaneous_cost",
                lines=(LINE1,),
                strategies=LINE1_SURVIVABILITY_STRATEGIES,
                disasters=(DISASTER_1,),
                horizon=4.5,
                points=46,
                description="Instantaneous cost, Line 1, Disaster 1",
            ),
            ScenarioSpec(
                name="fig7",
                measure="accumulated_cost",
                lines=(LINE1,),
                strategies=LINE1_SURVIVABILITY_STRATEGIES,
                disasters=(DISASTER_1,),
                horizon=10.0,
                points=23,
                description="Accumulated cost, Line 1, Disaster 1",
            ),
            ScenarioSpec(
                name="fig8_9",
                measure="survivability",
                lines=(LINE2,),
                strategies=PAPER_STRATEGIES,
                disasters=(DISASTER_2,),
                interval_indices=(0, 2),
                horizon=100.0,
                points=101,
                description="Line 2 recovery to X1/X3 after Disaster 2",
            ),
            ScenarioSpec(
                name="fig10",
                measure="instantaneous_cost",
                lines=(LINE2,),
                strategies=LINE2_COST_STRATEGIES,
                disasters=(DISASTER_2,),
                horizon=50.0,
                points=51,
                description="Instantaneous cost, Line 2, Disaster 2",
            ),
            ScenarioSpec(
                name="fig11",
                measure="accumulated_cost",
                lines=(LINE2,),
                strategies=LINE2_COST_STRATEGIES,
                disasters=(DISASTER_2,),
                horizon=50.0,
                points=25,
                description="Accumulated cost, Line 2, Disaster 2",
            ),
        )
    )
    if include_optimized:
        registry.register(
            ScenarioSpec(
                name="fig8_9_optimized",
                measure="optimized_survivability",
                lines=(LINE2,),
                strategies=PAPER_STRATEGIES,
                disasters=(DISASTER_2,),
                interval_indices=(0,),
                horizon=24.0,
                points=25,
                description=(
                    "Line 2 recovery to X1 after Disaster 2: rollout-optimized "
                    "policy vs the paper's fixed strategies"
                ),
            )
        )
        registry.register(
            ScenarioSpec(
                name="fig11_optimized",
                measure="optimized_accumulated_cost",
                lines=(LINE2,),
                strategies=PAPER_STRATEGIES,
                disasters=(DISASTER_2,),
                horizon=24.0,
                points=13,
                description=(
                    "Accumulated cost after Disaster 2 on Line 2: rollout-"
                    "optimized policy vs the paper's fixed strategies"
                ),
            )
        )
    return registry
