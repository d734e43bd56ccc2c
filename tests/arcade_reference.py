"""The tuple-form Arcade transition relation and breadth-first build, as the reference.

:mod:`repro.arcade.statespace` expands a whole breadth-first frontier per
array step over encoded states.  This module keeps the state-by-state loop it
replaced, over :data:`~repro.arcade.statespace.ArcadeState` tuples: the
``successors`` body, the breadth-first expansion and the simulator's sampling
loop, so tests can require the two to agree exactly.

:class:`ReferenceFailedSets` likewise keeps the scalar failed-set evaluation
that :class:`~repro.arcade.model.FailedSetTable` does in column arrays: one
set at a time, through the model's and the trees' scalar queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from repro.arcade.components import ArcadeModelError
from repro.arcade.model import ArcadeModel, Disaster
from repro.arcade.statespace import ArcadeState, failed_components, start_state
from repro.ctmc import CTMC, MarkovRewardModel, RewardStructure
from repro.ctmc.ctmc import CTMCBuilder


@dataclass(frozen=True)
class FailedSet:
    """What one set of failed components means in a model.

    ``failure_rates`` pairs every up component whose effective rate is
    positive with that rate, in model order; ``down`` is ``None`` without a
    fault tree; ``component_cost`` is
    :meth:`~repro.arcade.model.ArcadeModel.component_cost_rate`.
    """

    failed: frozenset[str]
    failure_rates: tuple[tuple[str, float], ...]
    down: bool | None
    service_level: Fraction
    component_cost: float


class ReferenceFailedSets(dict[frozenset[str], FailedSet]):
    """The :class:`FailedSet` of each failed set, evaluated on first lookup."""

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


class ReferenceSemantics:
    """The transition relation of an Arcade model, one tuple state at a time."""

    def __init__(self, model: ArcadeModel, with_repairs: bool = True) -> None:
        self.model = model
        self.with_repairs = with_repairs
        self.failed_sets = ReferenceFailedSets(model)
        self._components = model.components_by_name()
        self._unit_of = {
            name: position
            for position, unit in enumerate(model.repair_units)
            for name in unit.components
        }

    def evaluate(self, state: ArcadeState) -> FailedSet:
        """What the failed set of ``state`` means (its table row)."""
        return self.failed_sets[failed_components(state)]

    def successors(self, state: ArcadeState) -> list[tuple[float, ArcadeState]]:
        """Every enabled transition of ``state`` as ``(rate, successor)``.

        Failures come first, in model order, then repairs per unit in
        service order; seeded simulations depend on this order.
        """
        queues, uncovered = state
        units = self.model.repair_units
        transitions: list[tuple[float, ArcadeState]] = []
        for name, rate in self.evaluate(state).failure_rates:
            position = self._unit_of.get(name)
            if position is None:
                transitions.append((rate, (queues, tuple(sorted([*uncovered, name])))))
                continue
            queue = units[position].insert(
                queues[position], self._components[name], self._components
            )
            transitions.append((rate, (_with_queue(queues, position, queue), uncovered)))
        if self.with_repairs:
            for position, unit in enumerate(units):
                for name in unit.in_service(queues[position]):
                    queue = unit.remove(queues[position], name)
                    transitions.append(
                        (
                            self._components[name].repair_rate,
                            (_with_queue(queues, position, queue), uncovered),
                        )
                    )
        return transitions

    def cost_rate(self, state: ArcadeState) -> float:
        """Hourly cost of ``state``."""
        busy = {
            unit.name: unit.busy_crews(queue)
            for unit, queue in zip(self.model.repair_units, state[0])
        }
        return self.model.state_cost_rate(failed_components(state), busy)


def _with_queue(queues: tuple, position: int, queue: tuple[str, ...]) -> tuple:
    return tuple(queue if index == position else existing for index, existing in enumerate(queues))


@dataclass
class ReferenceStateSpace:
    """What :func:`reference_build` explored, index-aligned with its chain."""

    model: ArcadeModel
    chain: CTMC
    reward_model: MarkovRewardModel
    states: list[ArcadeState]
    service_levels: list[Fraction]
    index_of: dict[ArcadeState, int]

    def disaster_state(self, disaster: Disaster | str) -> int:
        return self.index_of[start_state(self.model, disaster)]


def reference_build(
    model: ArcadeModel,
    with_repairs: bool = True,
    max_states: int | None = None,
) -> ReferenceStateSpace:
    """Expand ``model`` breadth first, one state at a time."""
    semantics = ReferenceSemantics(model, with_repairs)
    initial_state = start_state(model)
    index_of: dict[ArcadeState, int] = {initial_state: 0}
    states: list[ArcadeState] = [initial_state]
    builder = CTMCBuilder()
    builder.add_state()
    service_levels: list[Fraction] = []
    cost_rates: list[float] = []

    # Breadth first: states are expanded in index order, so each is
    # labelled when it is expanded.
    source = 0
    while source < len(states):
        state = states[source]
        row = semantics.evaluate(state)
        if row.down is not None:
            builder.add_label("down" if row.down else "operational", source)
        service_levels.append(row.service_level)
        if row.service_level == 0:
            builder.add_label("no_service", source)
        if row.service_level == 1:
            builder.add_label("full_service", source)
        cost_rates.append(semantics.cost_rate(state))

        for rate, successor in semantics.successors(state):
            target = index_of.get(successor)
            if target is None:
                target = index_of[successor] = builder.add_state()
                states.append(successor)
                if max_states is not None and len(states) > max_states:
                    raise ArcadeModelError(
                        f"state space exceeds the limit of {max_states} states"
                    )
            builder.add_transition(source, target, rate)
        source += 1

    chain = builder.build({0: 1.0})
    reward_model = MarkovRewardModel(chain, RewardStructure("cost", np.array(cost_rates)))
    return ReferenceStateSpace(
        model=model,
        chain=chain,
        reward_model=reward_model,
        states=states,
        service_levels=service_levels,
        index_of=index_of,
    )


def reference_simulate(
    semantics: ReferenceSemantics,
    rng: np.random.Generator,
    horizon: float,
    disaster: Disaster | str | None = None,
) -> tuple[list[float], list[ArcadeState]]:
    """One trajectory, sampled from :meth:`ReferenceSemantics.successors`.

    The sampling loop of :meth:`repro.sim.ArcadeSimulator.simulate`: drawing
    from a generator in the same state gives the same ``(times, states)``.
    """
    state = start_state(semantics.model, disaster)
    times = [0.0]
    states = [state]
    clock = 0.0
    while True:
        transitions = semantics.successors(state)
        if not transitions:
            break
        total_rate = sum(rate for rate, _ in transitions)
        clock += float(rng.exponential(1.0 / total_rate))
        if clock >= horizon:
            break
        choice = float(rng.uniform(0.0, total_rate))
        cumulative = 0.0
        for rate, successor in transitions:
            cumulative += rate
            if choice <= cumulative:
                state = successor
                break
        times.append(clock)
        states.append(state)
    return times, states
