"""The states and transitions of an Arcade model, and its expansion into a CTMC.

This is the computational fast path used by the experiments (the reactive
modules and I/O-IMC translations are alternative routes that tests check for
agreement).  The state of the CTMC is

* one *repair queue* per repair unit — the ordered tuple of failed
  components under that unit's responsibility; the first ``crews`` entries
  are in service (see :mod:`repro.arcade.repair`), and
* the set of failed components not covered by any repair unit (they stay
  failed forever).

Transitions:

* an *up* component ``c`` fails with its effective failure rate (dormant
  rate if a spare management unit currently keeps it in standby); it is
  inserted into its repair unit's queue according to the unit's strategy,
* every component in service is repaired with its repair rate and leaves the
  queue.

Because failure and repair transitions are all exponential and no two
components share a transition, failures never occur simultaneously — the
prerequisite (noted in Section 2 of the paper) for the deterministic CTMC
translation to agree with the I/O-IMC semantics.

:class:`ArcadeSemantics` holds this transition relation; both
:func:`build_state_space` and the Monte-Carlo simulator walk its
:meth:`~ArcadeSemantics.successors` step.  Everything a state means beyond
its queues depends only on its failed set, and is read from one
:class:`~repro.arcade.model.FailedSetTable` row per distinct set.

Each state is labelled ``"down"``/``"operational"`` via the fault tree and
``"no_service"``/``"full_service"`` via the service tree; the quantitative
service level of every state is returned alongside the chain.  The cost
model becomes a reward structure named ``"cost"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from repro.arcade.components import ArcadeModelError
from repro.arcade.fault_tree import service_threshold
from repro.arcade.model import ArcadeModel, Disaster, FailedSet, FailedSetTable
from repro.ctmc import CTMC, MarkovRewardModel, RewardStructure
from repro.ctmc.ctmc import CTMCBuilder

#: A state is a pair ``(queues, uncovered_failed)`` where ``queues`` is a
#: tuple with one repair-queue tuple per repair unit (in model order) and
#: ``uncovered_failed`` is a sorted tuple of failed components that no
#: repair unit covers.
ArcadeState = tuple[tuple[tuple[str, ...], ...], tuple[str, ...]]


@dataclass
class ArcadeStateSpace:
    """The result of expanding an :class:`ArcadeModel` into a CTMC.

    Attributes
    ----------
    model:
        The Arcade model that was expanded.
    chain:
        The labelled CTMC (initial state = everything operational).
    reward_model:
        The chain wrapped with the ``"cost"`` reward structure.
    states:
        The explored states, index-aligned with the chain.
    service_levels:
        Exact service level (a :class:`fractions.Fraction`) per state.
    with_repairs:
        Whether repair transitions were generated (``False`` for the
        reliability model).
    """

    model: ArcadeModel
    chain: CTMC
    reward_model: MarkovRewardModel
    states: list[ArcadeState]
    service_levels: list[Fraction]
    with_repairs: bool

    def __post_init__(self) -> None:
        self._index = {state: index for index, state in enumerate(self.states)}
        self._levels: tuple[list[Fraction], np.ndarray] | None = None

    # ------------------------------------------------------------------
    @property
    def num_states(self) -> int:
        return self.chain.num_states

    @property
    def num_transitions(self) -> int:
        return self.chain.num_transitions

    def state_index(self, state: ArcadeState) -> int:
        try:
            return self._index[state]
        except KeyError:
            raise ArcadeModelError(f"state {state!r} was not reached during expansion") from None

    def failed_components(self, state_index: int) -> frozenset[str]:
        """The failed components of a state."""
        return failed_components(self.states[state_index])

    def service_level_array(self) -> np.ndarray:
        """Service levels as a float vector (index-aligned with the chain)."""
        return np.array([float(level) for level in self.service_levels])

    def states_with_service_at_least(self, threshold: float | Fraction) -> np.ndarray:
        """Indices of states whose service level is at least ``threshold``.

        This is the set ``S_{sl(x)}`` of the paper.  Only the few distinct
        levels are compared (exactly) with :func:`service_threshold` of the
        threshold; a per-state level id array, built on first use, maps the
        verdicts back to states.
        """
        limit = service_threshold(threshold)
        if self._levels is None:
            # Keyed by (numerator, denominator): Fractions are normalised,
            # and the tuples hash several times faster than Fractions do.
            ids: dict[tuple[int, int], int] = {}
            level_ids = np.fromiter(
                (
                    ids.setdefault((level.numerator, level.denominator), len(ids))
                    for level in self.service_levels
                ),
                dtype=int,
                count=len(self.service_levels),
            )
            self._levels = ([Fraction(*ratio) for ratio in ids], level_ids)
        levels, level_ids = self._levels
        attained = np.array([level >= limit for level in levels], dtype=bool)
        return np.flatnonzero(attained[level_ids])

    # ------------------------------------------------------------------
    def disaster_state(self, disaster: Disaster | str) -> int:
        """The index of the state a disaster leaves behind (see :func:`start_state`)."""
        return self.state_index(start_state(self.model, disaster))

    def initial_distribution_for_disaster(self, disaster: Disaster | str) -> np.ndarray:
        """A point-mass initial distribution on the disaster state."""
        distribution = np.zeros(self.num_states)
        distribution[self.disaster_state(disaster)] = 1.0
        return distribution

    def chain_for_disaster(self, disaster: Disaster | str) -> CTMC:
        """The same CTMC, started in the disaster state (the GOOD model)."""
        return self.chain.with_initial_distribution(
            self.initial_distribution_for_disaster(disaster)
        )


def failed_components(state: ArcadeState) -> frozenset[str]:
    """The failed components of a state: its queued and its uncovered ones."""
    queues, uncovered = state
    return frozenset(uncovered).union(*queues)


def start_state(model: ArcadeModel, disaster: Disaster | str | None = None) -> ArcadeState:
    """The all-up state, or the state a disaster leaves behind.

    The repair queues of a disaster state are built from the component
    priorities, as prescribed by the paper for Given-Occurrence-Of-Disaster
    models.
    """
    if disaster is None:
        return (tuple(() for _ in model.repair_units), ())
    if isinstance(disaster, str):
        disaster = model.disaster(disaster)
    components_by_name = model.components_by_name()
    failed = set(disaster.failed_components)
    queues = []
    for unit in model.repair_units:
        covered_failed = [name for name in failed if unit.covers(name)]
        queues.append(unit.initial_queue(covered_failed, components_by_name))
    covered = {name for unit in model.repair_units for name in unit.components}
    uncovered = tuple(sorted(failed - covered))
    return (tuple(queues), uncovered)


class ArcadeSemantics:
    """The transition relation of an Arcade model over :data:`ArcadeState`.

    :func:`build_state_space` expands it into a CTMC; the simulator samples
    it.  Each distinct failed set is evaluated once, in :attr:`failed_sets`.
    """

    def __init__(self, model: ArcadeModel, with_repairs: bool = True) -> None:
        self.model = model
        self.with_repairs = with_repairs
        self.failed_sets = FailedSetTable(model)
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

    def cost_rate(self, state: ArcadeState, row: FailedSet | None = None) -> float:
        """Hourly cost of ``state``; ``row`` is its :meth:`evaluate` row if known."""
        if row is None:
            row = self.evaluate(state)
        busy = {
            unit.name: unit.busy_crews(queue)
            for unit, queue in zip(self.model.repair_units, state[0])
        }
        return self.model.state_cost_rate(row.failed, busy, row.component_cost)


def _with_queue(queues: tuple, position: int, queue: tuple[str, ...]) -> tuple:
    return tuple(queue if index == position else existing for index, existing in enumerate(queues))


def build_state_space(
    model: ArcadeModel,
    with_repairs: bool = True,
    max_states: int | None = None,
) -> ArcadeStateSpace:
    """Expand ``model`` into an :class:`ArcadeStateSpace`.

    Parameters
    ----------
    model:
        The Arcade model.
    with_repairs:
        If ``False``, repair transitions are omitted; the resulting chain is
        the *reliability model* in which every failure is permanent (used
        for Figure 3 of the paper, where repairs are not considered).
    max_states:
        Optional safety limit on the number of reachable states.
    """
    semantics = ArcadeSemantics(model, with_repairs)
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
        cost_rates.append(semantics.cost_rate(state, row))

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
    return ArcadeStateSpace(
        model=model,
        chain=chain,
        reward_model=reward_model,
        states=states,
        service_levels=service_levels,
        with_repairs=with_repairs,
    )
