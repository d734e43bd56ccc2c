"""Direct expansion of an Arcade model into a labelled CTMC.

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

Each state is labelled ``"down"``/``"operational"`` via the fault tree and
``"no_service"``/``"full_service"`` via the service tree; the quantitative
service level of every state is returned alongside the chain.  The cost
model becomes a reward structure named ``"cost"``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from collections.abc import Iterable, Mapping

import numpy as np

from repro.arcade.components import ArcadeModelError
from repro.arcade.model import ArcadeModel, Disaster
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
        queues, uncovered = self.states[state_index]
        failed: set[str] = set(uncovered)
        for queue in queues:
            failed |= set(queue)
        return frozenset(failed)

    def service_level_array(self) -> np.ndarray:
        """Service levels as a float vector (index-aligned with the chain)."""
        return np.array([float(level) for level in self.service_levels])

    def states_with_service_at_least(self, threshold: float | Fraction) -> np.ndarray:
        """Indices of states whose service level is at least ``threshold``.

        This is the set ``S_{sl(x)}`` of the paper.  Only the few distinct
        levels are compared (exactly) with the threshold; a per-state level
        id array, built on first use, maps the verdicts back to states.
        """
        limit = Fraction(threshold).limit_denominator(10**6) if not isinstance(
            threshold, Fraction
        ) else threshold
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
        """The index of the state induced by a disaster (the GOOD start state).

        The repair queues of the disaster state are built from the component
        priorities, as prescribed by the paper for Given-Occurrence-Of-
        Disaster models.
        """
        if isinstance(disaster, str):
            disaster = self.model.disaster(disaster)
        components_by_name = self.model.components_by_name()
        failed = set(disaster.failed_components)
        queues = []
        for unit in self.model.repair_units:
            covered_failed = [name for name in failed if unit.covers(name)]
            queues.append(unit.initial_queue(covered_failed, components_by_name))
        covered = {name for unit in self.model.repair_units for name in unit.components}
        uncovered = tuple(sorted(failed - covered))
        return self.state_index((tuple(queues), uncovered))

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


def _state_failed(state: ArcadeState) -> set[str]:
    queues, uncovered = state
    failed: set[str] = set(uncovered)
    for queue in queues:
        failed |= set(queue)
    return failed


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
    components_by_name = model.components_by_name()
    component_names = model.component_names
    repair_units = model.repair_units
    service_tree = model.effective_service_tree()
    # Precomputed component -> repair-unit index (first covering unit wins),
    # so the expansion loop needs no linear scan over units per failure.
    unit_index_by_component: dict[str, int] = {}
    for position, unit in enumerate(repair_units):
        for name in unit.components:
            unit_index_by_component.setdefault(name, position)

    initial_state: ArcadeState = (tuple(() for _ in repair_units), ())

    index_of: dict[ArcadeState, int] = {initial_state: 0}
    states: list[ArcadeState] = [initial_state]
    queue: deque[int] = deque([0])

    builder = CTMCBuilder()
    builder.add_state(_describe(initial_state, repair_units))

    def register(state: ArcadeState) -> int:
        if state in index_of:
            return index_of[state]
        index = len(states)
        index_of[state] = index
        states.append(state)
        builder.add_state(_describe(state, repair_units))
        queue.append(index)
        if max_states is not None and len(states) > max_states:
            raise ArcadeModelError(f"state space exceeds the limit of {max_states} states")
        return index

    while queue:
        source = queue.popleft()
        state = states[source]
        queues, uncovered = state
        failed = _state_failed(state)
        up = [name for name in component_names if name not in failed]

        # Failure transitions.
        for name in up:
            rate = model.effective_failure_rate(name, up)
            if rate <= 0.0:
                continue
            unit_index = unit_index_by_component.get(name)
            if unit_index is None:
                successor: ArcadeState = (queues, tuple(sorted([*uncovered, name])))
            else:
                unit = repair_units[unit_index]
                new_queue = unit.insert(queues[unit_index], components_by_name[name], components_by_name)
                new_queues = tuple(
                    new_queue if position == unit_index else existing
                    for position, existing in enumerate(queues)
                )
                successor = (new_queues, uncovered)
            builder.add_transition(source, register(successor), rate)

        # Repair transitions.
        if with_repairs:
            for unit_index, unit in enumerate(repair_units):
                for name in unit.in_service(queues[unit_index]):
                    rate = components_by_name[name].repair_rate
                    new_queue = unit.remove(queues[unit_index], name)
                    new_queues = tuple(
                        new_queue if position == unit_index else existing
                        for position, existing in enumerate(queues)
                    )
                    successor = (new_queues, uncovered)
                    builder.add_transition(source, register(successor), rate)

    # Labels, service levels and costs.
    service_levels: list[Fraction] = []
    cost_rates = np.zeros(len(states))
    for index, state in enumerate(states):
        failed = _state_failed(state)
        up_set = [name for name in component_names if name not in failed]
        if model.fault_tree is not None:
            if model.is_down(failed):
                builder.add_label("down", index)
            else:
                builder.add_label("operational", index)
        level = service_tree.service_level(up_set)
        service_levels.append(level)
        if level == 0:
            builder.add_label("no_service", index)
        if level == 1:
            builder.add_label("full_service", index)
        busy = {
            unit.name: unit.busy_crews(state[0][position])
            for position, unit in enumerate(repair_units)
        }
        cost_rates[index] = model.state_cost_rate(failed, busy)

    chain = builder.build({0: 1.0})
    reward_model = MarkovRewardModel(chain, RewardStructure("cost", cost_rates))
    return ArcadeStateSpace(
        model=model,
        chain=chain,
        reward_model=reward_model,
        states=states,
        service_levels=service_levels,
        with_repairs=with_repairs,
    )


def _describe(state: ArcadeState, repair_units) -> dict:
    queues, uncovered = state
    description = {
        unit.name: list(queue) for unit, queue in zip(repair_units, queues)
    }
    if uncovered:
        description["unrepaired"] = list(uncovered)
    return description
