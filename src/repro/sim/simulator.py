"""Event-driven simulation of Arcade models.

Because every delay in an Arcade model is exponential, simulation reduces to
repeatedly sampling the race between all currently-enabled transitions:

* every *up* component may fail (at its effective, possibly dormant, rate),
* every component *in service* at its repair unit may finish repair.

The simulator samples the transition relation that the analytic
state-space generator expands: from
:func:`repro.arcade.statespace.start_state` it steps one-row frontiers
through the builder's array step, via
:meth:`repro.arcade.statespace.ArcadeSemantics.successors`, and reads its
observables from the columns of the same
:class:`~repro.arcade.model.FailedSetTable`.  So the simulator exercises
the model logic, not a re-implementation of it.  Each simulator remembers
the decoded successors of the states it has visited and the failed-set id
of each state it has been asked about, so a revisited state costs one
lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from collections.abc import Iterable

import numpy as np

from repro.arcade.components import ArcadeModelError
from repro.arcade.model import ArcadeModel, Disaster
from repro.arcade.statespace import (
    ArcadeSemantics,
    ArcadeState,
    failed_components,
    start_state,
)


@dataclass
class SimulationRun:
    """A single simulated trajectory.

    Attributes
    ----------
    times:
        Entry times of the visited states; ``times[0]`` is 0.
    states:
        The visited states (same encoding as the analytic state space), one
        per entry time; the last state persists until ``horizon``.
    horizon:
        The simulated time horizon.
    """

    times: list[float]
    states: list[ArcadeState]
    horizon: float

    def state_at(self, time: float) -> ArcadeState:
        """The state occupied at ``time`` (0 <= time <= horizon)."""
        if time < 0 or time > self.horizon:
            raise ValueError(f"time {time} outside the simulated horizon [0, {self.horizon}]")
        index = int(np.searchsorted(np.asarray(self.times), time, side="right")) - 1
        return self.states[max(index, 0)]

    def holding_intervals(self) -> Iterable[tuple[float, float, ArcadeState]]:
        """Yield ``(start, end, state)`` for every holding period of the run."""
        for index, state in enumerate(self.states):
            start = self.times[index]
            end = self.times[index + 1] if index + 1 < len(self.times) else self.horizon
            if end > start:
                yield start, min(end, self.horizon), state


class ArcadeSimulator:
    """Monte-Carlo simulator for an :class:`~repro.arcade.model.ArcadeModel`."""

    def __init__(
        self,
        model: ArcadeModel,
        with_repairs: bool = True,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        self._semantics = ArcadeSemantics(model, with_repairs)
        self._transitions: dict[ArcadeState, tuple[float, list[tuple[float, ArcadeState]]]] = {}
        self._set_ids: dict[ArcadeState, int] = {}
        self._rng = (
            seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        )

    @property
    def model(self) -> ArcadeModel:
        return self._semantics.model

    # ------------------------------------------------------------------
    def initial_state(self, disaster: Disaster | str | None = None) -> ArcadeState:
        """The all-up state, or the state induced by a disaster."""
        return start_state(self.model, disaster)

    def simulate(
        self,
        horizon: float,
        disaster: Disaster | str | None = None,
    ) -> SimulationRun:
        """Simulate one trajectory of length ``horizon`` hours."""
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        state = self.initial_state(disaster)
        times = [0.0]
        states = [state]
        clock = 0.0
        while True:
            total_rate, transitions = self._successors(state)
            if not transitions:
                break
            clock += float(self._rng.exponential(1.0 / total_rate))
            if clock >= horizon:
                break
            choice = float(self._rng.uniform(0.0, total_rate))
            cumulative = 0.0
            for rate, successor in transitions:
                cumulative += rate
                if choice <= cumulative:
                    state = successor
                    break
            times.append(clock)
            states.append(state)
        return SimulationRun(times=times, states=states, horizon=horizon)

    def _successors(self, state: ArcadeState) -> tuple[float, list[tuple[float, ArcadeState]]]:
        """The total rate and the transitions of ``state``, stepped once per state."""
        entry = self._transitions.get(state)
        if entry is None:
            transitions = self._semantics.successors(state)
            entry = self._transitions[state] = (
                sum(rate for rate, _ in transitions),
                transitions,
            )
        return entry

    # ------------------------------------------------------------------
    # per-state observables (shared by the estimators)
    # ------------------------------------------------------------------
    def failed_components(self, state: ArcadeState) -> frozenset[str]:
        return failed_components(state)

    def is_operational(self, state: ArcadeState) -> bool:
        if self.model.fault_tree is None:
            raise ArcadeModelError(f"model {self.model.name!r} has no fault tree")
        set_id = self._set_id(state)
        return not self._semantics.table.down[set_id]

    def service_level(self, state: ArcadeState) -> Fraction:
        set_id = self._set_id(state)
        table = self._semantics.table
        return table.levels[table.level_ids[set_id]]

    def cost_rate(self, state: ArcadeState) -> float:
        set_id = self._set_id(state)
        return float(self._semantics.table.cost[set_id])

    def _set_id(self, state: ArcadeState) -> int:
        """The failed-set id of ``state``, looked up once per state.

        Read the table's columns after this call: it may grow them.
        """
        set_id = self._set_ids.get(state)
        if set_id is None:
            set_id = self._set_ids[state] = self._semantics.set_id(state)
        return set_id
