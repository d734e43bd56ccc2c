"""CTMDP formulation of repair assignment for an Arcade model.

The paper *compares* five fixed repair strategies; this module turns repair
assignment into a decision problem.  A :class:`RepairCTMDP` expands an
:class:`~repro.arcade.model.ArcadeModel` into a controlled chain whose
states are the **sets of failed components** (one bitmask per state, the
mask *is* the state index) and whose actions decide, per repair unit, which
of its currently failed components the crews serve.  Failure dynamics are
action-independent; repair transitions and crew costs follow the chosen
assignment.

Action space
------------
Per state and repair unit the admissible choices are all non-empty subsets
of the unit's failed components with at most ``crew_limit`` members
(unlimited by default, i.e. up to one crew per component).  A unit with
failed components never idles completely — that weak work conservation
keeps every induced chain unichain (some repair always makes progress, so
the all-up state stays reachable), which exact average-cost policy
iteration relies on.  Individual crews may still idle: serving one
component while two have failed is a valid action, which is exactly what
makes the paper's ``FRF-1``/``FFF-1`` strategies *points in this policy
space* alongside ``DED``.

Fixed strategies as policies
----------------------------
:meth:`RepairCTMDP.strategy_policy` maps a
:class:`~repro.casestudy.facility.StrategyConfiguration` onto the action
that serves the first ``crews`` failed components in the strategy's policy
order (``DED`` serves everything).  Set states carry no arrival order, so
this is exact for the *preemptive* strategies: their queues are always
sorted by ``(policy_key, arrival)``, and components of the same class are
exchangeable (equal rates, class-symmetric fault/service trees), so the
queue-ordered chain and the set-based chain are ordinarily lumpable to the
same class-count process — the faithfulness tests verify the measures agree
to solver precision.  FCFS depends on genuine arrival order and has no
set-based representation; requesting it raises :class:`OptimizeError`.

Everything downstream (policy iteration, rollout) consumes the flat arrays
built here: ``action_state``/``action_cost`` indexed by a *flat action
index*, repair transition triplets indexed by flat action, and
state-indexed failure triplets — so scoring every candidate action of every
state is a handful of vectorized ``bincount``/``reduceat`` calls, not a
Python loop over the action space.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse

from repro.arcade.fault_tree import service_threshold
from repro.arcade.model import ArcadeModel, Disaster, FailedSetTable
from repro.arcade.repair import RepairStrategy
from repro.casestudy.facility import StrategyConfiguration
from repro.ctmc import CTMC

#: Hard ceiling on ``2**num_components`` (the CTMDP state count).
MAX_CTMDP_STATES = 1 << 14

#: Hard ceiling on the admissible actions of any single state.
MAX_ACTIONS_PER_STATE = 4096


class OptimizeError(ValueError):
    """A model or policy the optimization subsystem cannot handle."""


@dataclass(frozen=True)
class RepairPolicy:
    """A deterministic stationary policy: one flat action index per state.

    ``actions[s]`` must lie inside state ``s``'s slice of the flat action
    arrays (:meth:`RepairCTMDP.validate_policy` checks).  Policies hash and
    compare by their action tuple, which is also the induced-chain memo key.
    """

    name: str
    actions: tuple[int, ...]


class RepairCTMDP:
    """The repair-assignment CTMDP of ``model`` (see module docstring).

    Parameters
    ----------
    model:
        The facility.  The model's own repair-unit strategies are ignored —
        they are *policies*, not dynamics — but its components, spare
        management, fault/service trees, disasters and cost model all carry
        over.  The crew pool priced by the cost model is normalised to the
        decision capacity: one crew per covered component when
        ``crew_limit`` is ``None``, else ``crew_limit`` crews per unit.
    crew_limit:
        Cap on the crews (served components) per unit and state.  ``None``
        admits every strategy up to dedicated repair.
    """

    def __init__(self, model: ArcadeModel, *, crew_limit: int | None = None) -> None:
        if crew_limit is not None and crew_limit < 1:
            raise OptimizeError(f"crew_limit must be >= 1, got {crew_limit}")
        if not model.repair_units:
            raise OptimizeError(f"model {model.name!r} has no repair units to optimize")
        if model.fault_tree is None:
            raise OptimizeError(f"model {model.name!r} has no fault tree")
        names = model.component_names
        if (1 << len(names)) > MAX_CTMDP_STATES:
            raise OptimizeError(
                f"model {model.name!r} has {len(names)} components -> "
                f"{1 << len(names)} CTMDP states (limit {MAX_CTMDP_STATES})"
            )
        if crew_limit is None:
            model = model.with_repair_strategy(RepairStrategy.DEDICATED)
        else:
            model = model.with_repair_strategy(RepairStrategy.FCFS, crew_limit)
        self.model = model
        self.crew_limit = crew_limit
        self.component_names: tuple[str, ...] = names
        self._bit = {name: 1 << index for index, name in enumerate(names)}
        self.num_states = 1 << len(names)
        self._build()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        model = self.model
        names = self.component_names
        components = model.components_by_name()
        num_states = self.num_states
        # Every failed set at once: row ``mask`` of the table is the state ``mask``.
        table = FailedSetTable(model)
        table.add((np.arange(num_states)[:, None] >> np.arange(len(names)) & 1) == 1)
        failed_of_state = [tuple(itertools.compress(names, row)) for row in table.failed.tolist()]
        capacity = {
            unit.name: (
                min(self.crew_limit, len(unit.components))
                if self.crew_limit is not None
                else len(unit.components)
            )
            for unit in model.repair_units
        }

        action_offsets = np.zeros(num_states + 1, dtype=np.int64)
        action_state: list[int] = []
        action_busy: list[list[int]] = []
        action_served: list[tuple[tuple[str, ...], ...]] = []
        repair_action: list[int] = []
        repair_target: list[int] = []
        repair_rates: list[float] = []

        for mask, failed in enumerate(failed_of_state):
            # Admissible served-subsets per unit, in component order.
            per_unit: list[list[tuple[str, ...]]] = []
            for unit in model.repair_units:
                queue = tuple(name for name in failed if name in unit.components)
                if not queue:
                    per_unit.append([()])
                    continue
                cap = min(capacity[unit.name], len(queue))
                choices = [
                    subset
                    for size in range(1, cap + 1)
                    for subset in itertools.combinations(queue, size)
                ]
                per_unit.append(choices)

            combos = list(itertools.product(*per_unit))
            if len(combos) > MAX_ACTIONS_PER_STATE:
                raise OptimizeError(
                    f"state {failed or 'all-up'} admits {len(combos)} actions "
                    f"(limit {MAX_ACTIONS_PER_STATE}); pass a smaller crew_limit"
                )
            flat_base = len(action_state)
            for served in combos:
                flat = len(action_state)
                action_state.append(mask)
                action_served.append(served)
                action_busy.append([len(subset) for subset in served])
                for subset in served:
                    for name in subset:
                        repair_action.append(flat)
                        repair_target.append(mask & ~self._bit[name])
                        repair_rates.append(components[name].repair_rate)
            action_offsets[mask + 1] = flat_base + len(combos)

        fail_src, failing = np.nonzero(table.rates > 0.0)
        self.action_offsets = action_offsets
        self.action_state = np.asarray(action_state, dtype=np.int64)
        self.action_cost = table.with_crew_costs(
            table.component_cost[self.action_state], np.array(action_busy, dtype=np.int64)
        )
        self.action_served = action_served
        self.repair_action = np.asarray(repair_action, dtype=np.int64)
        self.repair_target = np.asarray(repair_target, dtype=np.int64)
        self.repair_rate = np.asarray(repair_rates, dtype=float)
        self.fail_src = fail_src.astype(np.int64)
        self.fail_tgt = self.fail_src | (1 << failing)
        self.fail_rate = table.rates[fail_src, failing]
        self.down = table.down
        self.service_fractions = tuple(map(table.levels.__getitem__, table.level_ids.tolist()))
        self.service_levels = np.asarray([float(f) for f in self.service_fractions])
        self.failed_of_state = tuple(failed_of_state)
        self.total_actions = len(action_state)
        self._chain_cache: dict[tuple[int, ...], CTMC] = {}

    # ------------------------------------------------------------------
    # state helpers
    # ------------------------------------------------------------------
    def state_of(self, failed_components: Iterable[str]) -> int:
        """The state index (= bitmask) of a failed-component set."""
        mask = 0
        for name in failed_components:
            try:
                mask |= self._bit[name]
            except KeyError:
                raise OptimizeError(
                    f"unknown component {name!r} in model {self.model.name!r}"
                ) from None
        return mask

    def disaster_state(self, disaster: Disaster | str) -> int:
        if isinstance(disaster, str):
            disaster = self.model.disaster(disaster)
        return self.state_of(disaster.failed_components)

    def states_with_service_at_least(self, threshold: float | Fraction) -> np.ndarray:
        """Boolean state mask, with the queue space's :func:`service_threshold` rule."""
        limit = service_threshold(threshold)
        return np.asarray([level >= limit for level in self.service_fractions], dtype=bool)

    def actions_of(self, state: int) -> range:
        """The flat action indices admissible in ``state``."""
        return range(self.action_offsets[state], self.action_offsets[state + 1])

    def describe_action(self, flat_index: int) -> str:
        served = self.action_served[flat_index]
        parts = []
        for unit, subset in zip(self.model.repair_units, served):
            if subset:
                parts.append(f"{unit.name}->{{{','.join(subset)}}}")
        return " ".join(parts) if parts else "(idle)"

    def validate_policy(self, policy: RepairPolicy) -> None:
        if len(policy.actions) != self.num_states:
            raise OptimizeError(
                f"policy {policy.name!r} has {len(policy.actions)} actions for "
                f"{self.num_states} states"
            )
        actions = np.asarray(policy.actions, dtype=np.int64)
        low = self.action_offsets[:-1]
        high = self.action_offsets[1:]
        if np.any(actions < low) or np.any(actions >= high):
            raise OptimizeError(f"policy {policy.name!r} picks out-of-state actions")

    # ------------------------------------------------------------------
    # fixed strategies as policies
    # ------------------------------------------------------------------
    def strategy_policy(self, configuration: StrategyConfiguration) -> RepairPolicy:
        """The stationary policy of a fixed (preemptive) repair strategy."""
        strategy = configuration.strategy
        if strategy is RepairStrategy.FCFS:
            raise OptimizeError(
                "FCFS depends on arrival order and has no set-based policy; "
                "pick a preemptive strategy (DED / FRF-k / FFF-k / PRIO-k)"
            )
        components = self.model.components_by_name()
        units = [
            unit.with_strategy(strategy, configuration.crews)
            for unit in self.model.repair_units
        ]
        actions: list[int] = []
        order = {name: index for index, name in enumerate(self.component_names)}
        for mask in range(self.num_states):
            failed = self.failed_of_state[mask]
            served: list[tuple[str, ...]] = []
            for unit in units:
                queue = [name for name in failed if name in unit.components]
                if not queue:
                    served.append(())
                    continue
                queue.sort(key=lambda name: (unit.policy_key(components[name]), name))
                take = queue[: unit.effective_crews()]
                if self.crew_limit is not None and len(take) > self.crew_limit:
                    raise OptimizeError(
                        f"strategy {configuration.label} needs {len(take)} crews "
                        f"but the CTMDP caps units at {self.crew_limit}"
                    )
                served.append(tuple(sorted(take, key=order.__getitem__)))
            target = tuple(served)
            for flat in self.actions_of(mask):
                if self.action_served[flat] == target:
                    actions.append(flat)
                    break
            else:  # pragma: no cover - enumeration covers every such subset
                raise OptimizeError(
                    f"action {target} of strategy {configuration.label} is not "
                    f"admissible in state {failed or 'all-up'}"
                )
        return RepairPolicy(name=configuration.label, actions=tuple(actions))

    # ------------------------------------------------------------------
    # induced chains
    # ------------------------------------------------------------------
    def chain_is_cached(self, policy: RepairPolicy) -> bool:
        return policy.actions in self._chain_cache

    def induced_chain(self, policy: RepairPolicy) -> CTMC:
        """The CTMC obtained by fixing ``policy`` (memoized per action tuple).

        Labels ``down``/``operational`` follow the fault tree; the initial
        distribution is the all-up state (callers override per disaster).
        """
        cached = self._chain_cache.get(policy.actions)
        if cached is not None:
            return cached
        self.validate_policy(policy)
        chosen = np.zeros(self.total_actions, dtype=bool)
        chosen[np.asarray(policy.actions, dtype=np.int64)] = True
        picked = chosen[self.repair_action]
        rows = np.concatenate([self.fail_src, self.action_state[self.repair_action[picked]]])
        cols = np.concatenate([self.fail_tgt, self.repair_target[picked]])
        rates = np.concatenate([self.fail_rate, self.repair_rate[picked]])
        matrix = sparse.coo_matrix(
            (rates, (rows, cols)), shape=(self.num_states, self.num_states)
        ).tocsr()
        initial = np.zeros(self.num_states)
        initial[0] = 1.0
        chain = CTMC(
            matrix,
            initial,
            labels={"down": self.down, "operational": ~self.down},
        )
        self._chain_cache[policy.actions] = chain
        return chain

    def policy_cost(self, policy: RepairPolicy) -> np.ndarray:
        """The state cost-rate vector under ``policy`` (crew costs included)."""
        return self.action_cost[np.asarray(policy.actions, dtype=np.int64)]

    # ------------------------------------------------------------------
    # vectorized one-step lookahead
    # ------------------------------------------------------------------
    def action_q_values(
        self, values: np.ndarray, costs: np.ndarray | None = None
    ) -> np.ndarray:
        """``Q[a] = costs[a] + sum_t q_a(s_a, t) * (values[t] - values[s_a])``.

        One entry per flat action; ``sum_t Q_a(s,t) values[t]`` over the full
        generator row, computed from the shared failure triplets plus each
        action's repair triplets.  This is the whole candidate-scoring step:
        every admissible action of every state in three ``bincount`` calls.
        """
        h = np.asarray(values, dtype=float)
        fail_flow = np.bincount(
            self.fail_src,
            weights=self.fail_rate * (h[self.fail_tgt] - h[self.fail_src]),
            minlength=self.num_states,
        )
        repair_src = self.action_state[self.repair_action]
        repair_flow = np.bincount(
            self.repair_action,
            weights=self.repair_rate * (h[self.repair_target] - h[repair_src]),
            minlength=self.total_actions,
        )
        q = repair_flow + fail_flow[self.action_state]
        if costs is not None:
            q = q + costs
        return q

    def greedy_policy(
        self,
        values: np.ndarray,
        *,
        costs: np.ndarray | None = None,
        maximize: bool = False,
        current: Sequence[int] | None = None,
        frozen: np.ndarray | None = None,
        tolerance: float = 1e-10,
        name: str = "greedy",
    ) -> tuple[RepairPolicy, int]:
        """The greedy one-step policy for ``values``; returns (policy, #changed).

        With ``current`` given, a state keeps its current action unless a
        strictly better one (beyond ``tolerance``) exists — the tie-break
        that makes policy iteration terminate finitely.  ``frozen`` marks
        states whose action is kept outright (e.g. survivability target
        states, where post-target behaviour cannot affect the measure).
        """
        score = self.action_q_values(values, costs)
        if maximize:
            score = -score
        best = np.minimum.reduceat(score, self.action_offsets[:-1])
        actions: list[int] = []
        changed = 0
        for state in range(self.num_states):
            lo = int(self.action_offsets[state])
            hi = int(self.action_offsets[state + 1])
            keep = current[state] if current is not None else None
            if keep is not None and (
                (frozen is not None and frozen[state])
                or score[keep] <= best[state] + tolerance
            ):
                actions.append(int(keep))
                continue
            pick = lo + int(np.argmin(score[lo:hi]))
            actions.append(pick)
            if keep is not None and pick != keep:
                changed += 1
        if current is None:
            changed = self.num_states
        return RepairPolicy(name=name, actions=tuple(actions)), changed
