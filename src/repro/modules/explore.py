"""Explicit-state exploration of a composed modules file into a CTMC.

The composition semantics follows PRISM in CTMC mode:

* every enabled *unlabelled* command of every module contributes its
  transitions independently (interleaving),
* for every synchronising action label ``a``, every combination of one
  enabled ``a``-command per module whose alphabet contains ``a`` fires
  together; the combined update is the union of the individual updates and
  the combined rate is the *product* of the individual rates,
* transitions between the same pair of states add up (race semantics).

Exploration is a breadth-first search from the initial valuation; the result
is a :class:`repro.ctmc.CTMC` whose labels are the modules file's label
expressions evaluated per state, plus a :class:`repro.ctmc.MarkovRewardModel`
if reward structures are present.
"""

from __future__ import annotations

import itertools
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any

import numpy as np
from scipy import sparse

from repro.ctmc import CTMC, MarkovRewardModel, RewardStructure
from repro.modules.model import Command, Module, ModulesFile, ModulesError


@dataclass
class ExplorationResult:
    """The outcome of state-space exploration.

    Attributes
    ----------
    chain:
        The labelled CTMC.
    reward_model:
        A Markov reward model wrapping ``chain`` (``None`` when the modules
        file defines no reward structures).
    states:
        The explored states as tuples of variable values, index-aligned with
        the CTMC's state indices.
    variable_order:
        The variable names defining the tuple positions in ``states``.
    """

    chain: CTMC
    reward_model: MarkovRewardModel | None
    states: list[tuple]
    variable_order: tuple[str, ...]

    @property
    def num_states(self) -> int:
        return self.chain.num_states

    @property
    def num_transitions(self) -> int:
        return self.chain.num_transitions

    def state_index(self, valuation: Mapping[str, Any]) -> int:
        """Return the index of the state with the given variable valuation."""
        key = tuple(valuation[name] for name in self.variable_order)
        try:
            return self._index[key]  # type: ignore[attr-defined]
        except AttributeError:
            self._index = {state: i for i, state in enumerate(self.states)}  # type: ignore[attr-defined]
            return self._index[key]

    def valuation(self, state: int) -> dict[str, Any]:
        """Return the variable valuation of state ``state``."""
        return dict(zip(self.variable_order, self.states[state]))


def _unlabelled_transitions(
    command: Command, state: Mapping[str, Any]
) -> list[tuple[dict[str, Any], float]]:
    """Successor valuations and rates of an enabled unlabelled command."""
    transitions = []
    for rate_expression, update in command.alternatives:
        rate = float(rate_expression.evaluate(state))
        if rate < 0:
            raise ModulesError(f"negative rate in command {command}")
        if rate == 0.0:
            continue
        transitions.append((update.apply(state), rate))
    return transitions


def _synchronised_transitions(
    action: str,
    participants: list[tuple[Module, list[Command]]],
    state: Mapping[str, Any],
) -> list[tuple[dict[str, Any], float]]:
    """Joint transitions for a synchronising action.

    ``participants`` lists, per module with ``action`` in its alphabet, the
    enabled commands carrying that action.  If any participating module has
    no enabled command the action is blocked.
    """
    per_module_choices: list[list[tuple[dict[str, Any], float]]] = []
    for _module, commands in participants:
        choices: list[tuple[dict[str, Any], float]] = []
        for command in commands:
            choices.extend(_unlabelled_transitions(command, state))
        if not choices:
            return []
        per_module_choices.append(choices)

    transitions: list[tuple[dict[str, Any], float]] = []
    for combination in itertools.product(*per_module_choices):
        merged = dict(state)
        rate = 1.0
        for successor, partial_rate in combination:
            rate *= partial_rate
            for name, value in successor.items():
                if value != state.get(name):
                    merged[name] = value
        transitions.append((merged, rate))
    return transitions


def build_ctmc(system: ModulesFile, max_states: int | None = None) -> ExplorationResult:
    """Explore ``system`` and return the resulting CTMC.

    Parameters
    ----------
    system:
        The modules file to compose and explore.
    max_states:
        Optional safety limit; exploration aborts with an error if more
        states are reachable.
    """
    system.validate()
    declarations = system.all_variables()
    variable_order = tuple(declaration.name for declaration in declarations)
    declaration_map = {declaration.name: declaration for declaration in declarations}

    initial_valuation = system.initial_state()
    constants = dict(system.constants)

    def pack(valuation: Mapping[str, Any]) -> tuple:
        return tuple(valuation[name] for name in variable_order)

    def unpack(state: tuple) -> dict[str, Any]:
        valuation = dict(constants)
        valuation.update(zip(variable_order, state))
        return valuation

    # Pre-compute per-action participant lists.
    actions = sorted(system.synchronising_actions())
    participants_by_action: dict[str, list[tuple[Module, list[Command]]]] = {}
    for action in actions:
        participants: list[tuple[Module, list[Command]]] = []
        for module in system.modules:
            commands = [command for command in module.commands if command.action == action]
            if commands:
                participants.append((module, commands))
        participants_by_action[action] = participants

    initial_state = pack(initial_valuation)
    index_of: dict[tuple, int] = {initial_state: 0}
    states: list[tuple] = [initial_state]
    queue: deque[int] = deque([0])

    rows: list[int] = []
    cols: list[int] = []
    rates: list[float] = []
    # Per reward structure: transition impulse contributions, accumulated as
    # expected impulse rate (impulse * rate) per source state, converted to an
    # equivalent state reward at the end (standard treatment for CTMCs).
    transition_reward_rate: dict[str, dict[int, float]] = {
        definition.name: {} for definition in system.rewards
    }

    def register(valuation: Mapping[str, Any]) -> int:
        key = pack(valuation)
        if key in index_of:
            return index_of[key]
        # validate ranges on first encounter
        for name, declaration in declaration_map.items():
            declaration.validate_value(valuation[name])
        index = len(states)
        index_of[key] = index
        states.append(key)
        queue.append(index)
        if max_states is not None and len(states) > max_states:
            raise ModulesError(f"state space exceeds the limit of {max_states} states")
        return index

    while queue:
        source = queue.popleft()
        valuation = unpack(states[source])

        # Unlabelled commands: interleaving.
        for module in system.modules:
            for command in module.commands:
                if command.action:
                    continue
                if not command.guard.evaluate(valuation):
                    continue
                for successor, rate in _unlabelled_transitions(command, valuation):
                    target = register(successor)
                    if target != source:
                        rows.append(source)
                        cols.append(target)
                        rates.append(rate)

        # Synchronising actions.
        for action in actions:
            participants = participants_by_action[action]
            enabled: list[tuple[Module, list[Command]]] = []
            blocked = False
            for module, commands in participants:
                enabled_commands = [
                    command for command in commands if command.guard.evaluate(valuation)
                ]
                if not enabled_commands:
                    blocked = True
                    break
                enabled.append((module, enabled_commands))
            if blocked or not enabled:
                continue
            for successor, rate in _synchronised_transitions(action, enabled, valuation):
                target = register(successor)
                if target != source:
                    rows.append(source)
                    cols.append(target)
                    rates.append(rate)
                    for definition in system.rewards:
                        impulse = definition.transition_reward(action, valuation)
                        if impulse:
                            bucket = transition_reward_rate[definition.name]
                            bucket[source] = bucket.get(source, 0.0) + impulse * rate

    num_states = len(states)
    matrix = sparse.coo_matrix(
        (rates, (rows, cols)), shape=(num_states, num_states)
    ).tocsr()
    matrix.sum_duplicates()

    labels: dict[str, list[int]] = {name: [] for name in system.labels}
    for index, state in enumerate(states):
        valuation = unpack(state)
        for name, expression in system.labels.items():
            if expression.evaluate(valuation):
                labels[name].append(index)

    chain = CTMC(matrix, {0: 1.0}, labels=labels)

    reward_model = None
    if system.rewards:
        structures = []
        for definition in system.rewards:
            values = np.zeros(num_states)
            for index, state in enumerate(states):
                valuation = unpack(state)
                values[index] = definition.state_reward(valuation)
            for index, extra in transition_reward_rate[definition.name].items():
                values[index] += extra
            structures.append(RewardStructure(definition.name, values))
        reward_model = MarkovRewardModel(chain, structures)

    return ExplorationResult(
        chain=chain,
        reward_model=reward_model,
        states=states,
        variable_order=variable_order,
    )


def build_reward_model(system: ModulesFile, max_states: int | None = None) -> MarkovRewardModel:
    """Explore ``system`` and return its Markov reward model.

    Raises if the system defines no reward structure.
    """
    result = build_ctmc(system, max_states)
    if result.reward_model is None:
        raise ModulesError("the modules file defines no reward structure")
    return result.reward_model
