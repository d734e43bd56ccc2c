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

Internally a state is one row of small ints (:class:`StateEncoding`): each
repair unit's queue slots, then a bitmask of the failed components that no
unit covers.  :class:`ArcadeSemantics` holds the transition relation as one
array step, :meth:`~ArcadeSemantics.step`, over a frontier of such rows;
queue insertion positions come from per-unit rank tables built once from
:meth:`~repro.arcade.repair.RepairUnit.policy_key`.
:func:`build_state_space` expands a whole breadth-first frontier per step and
keeps the states encoded (:attr:`ArcadeStateSpace.states` decodes them on
demand); the Monte-Carlo simulator steps one-row frontiers through
:meth:`~ArcadeSemantics.successors`.

Everything a state means beyond its queues depends only on its failed set:
its failure rates, its labels, its service level and its cost.
:meth:`ArcadeSemantics.set_ids` finds each row's set by its packed bitmask
and evaluates all of a frontier's unseen sets in one batch, as rows of a
:class:`~repro.arcade.model.FailedSetTable`; a per-state failed-set id
scatters the table's columns to the states.

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
from repro.arcade.model import ArcadeModel, Disaster, FailedSetTable
from repro.arcade.repair import RepairStrategy
from repro.ctmc import CTMC, MarkovRewardModel, RewardStructure
from repro.ctmc.ctmc import CTMCBuilder

#: A state is a pair ``(queues, uncovered_failed)`` where ``queues`` is a
#: tuple with one repair-queue tuple per repair unit (in model order) and
#: ``uncovered_failed`` is a sorted tuple of failed components that no
#: repair unit covers.
ArcadeState = tuple[tuple[tuple[str, ...], ...], tuple[str, ...]]

#: The dtype of an encoded state.  A queue slot holds 1 + the queued
#: component's position in its repair unit, so a unit covers at most
#: ``np.iinfo(_CELL).max`` components.
_CELL = np.uint8


def _keys(rows: np.ndarray) -> np.ndarray:
    """One sortable scalar per row of ``rows``: the row's bytes."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()


def _find(known: np.ndarray, numbers: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """The number of each key among the sorted ``known`` keys, -1 where it is missing."""
    if not len(known):
        return np.full(len(keys), -1, dtype=np.intp)
    spots = np.minimum(np.searchsorted(known, keys), len(known) - 1)
    return np.where(known[spots] == keys, numbers[spots], -1)


class StateEncoding:
    """How an :data:`ArcadeState` is laid out as one row of :data:`_CELL` ints.

    Repair unit ``u`` takes ``len(u.components)`` slots, in queue order: a
    slot holds 1 + the queued component's position in ``u.components``, and
    0 once the queue has ended.  The failed components that no unit covers
    follow as a little-endian bitmask, bit ``j`` for the ``j``-th of them in
    name order.  A failed set is a little-endian bitmask over all components
    in model order, packed into bytes; both masks grow with the model.
    """

    def __init__(self, model: ArcadeModel) -> None:
        self.model_name = model.name
        self.names = model.component_names
        self.unit_components = tuple(unit.components for unit in model.repair_units)
        limit = np.iinfo(_CELL).max
        for unit in model.repair_units:
            if len(unit.components) > limit:
                raise ArcadeModelError(
                    f"repair unit {unit.name!r} covers {len(unit.components)} components; "
                    f"a queue slot holds at most {limit}"
                )
        widths = np.array([len(members) for members in self.unit_components], dtype=np.intp)
        #: The first slot of each unit.
        self.offsets = tuple((np.cumsum(widths) - widths).tolist())
        self.slot_count = int(widths.sum())
        covered = {name for members in self.unit_components for name in members}
        self.uncovered = tuple(sorted(set(self.names) - covered))
        self.width = self.slot_count + -(-len(self.uncovered) // 8)
        self.mask_bytes = -(-len(self.names) // 8)

        position = {name: index for index, name in enumerate(self.names)}
        # Slot value v in slot column c names model component
        # _slot_component[_slot_base[c] + v]; an empty slot names the extra
        # column len(names), which failed drops.
        tables = [
            [len(self.names), *(position[name] for name in members)]
            for members in self.unit_components
        ]
        self._slot_base = np.repeat(np.cumsum(widths + 1) - (widths + 1), widths)
        self._slot_component = np.array(
            [index for table in tables for index in table], dtype=np.intp
        )
        self._uncovered_component = np.array(
            [position[name] for name in self.uncovered], dtype=np.intp
        )
        self._slot_of = [
            {name: value for value, name in enumerate(members, 1)}
            for members in self.unit_components
        ]
        self._bit_of = {name: bit for bit, name in enumerate(self.uncovered)}

    # ------------------------------------------------------------------
    def encode(self, state: ArcadeState) -> np.ndarray:
        """The row of ``state``; :class:`ArcadeModelError` if it is no state of the model."""
        row = np.zeros(self.width, dtype=_CELL)
        try:
            queues, uncovered = state
            if len(queues) != len(self.offsets) or tuple(uncovered) != tuple(
                sorted(set(uncovered))
            ):
                raise ValueError
            for slot_of, offset, queue in zip(self._slot_of, self.offsets, queues):
                if len(set(queue)) != len(queue):
                    raise ValueError
                row[offset : offset + len(queue)] = [slot_of[name] for name in queue]
            for name in uncovered:
                bit = self._bit_of[name]
                row[self.slot_count + bit // 8] |= 1 << bit % 8
        except (KeyError, TypeError, ValueError):
            raise ArcadeModelError(
                f"{state!r} is not a state of model {self.model_name!r}"
            ) from None
        return row

    def decode(self, rows: np.ndarray) -> list[ArcadeState]:
        """The :data:`ArcadeState` of each row."""
        units = [
            (offset, offset + len(members), (None, *members))
            for offset, members in zip(self.offsets, self.unit_components)
        ]
        uncovered = [
            (name, self.slot_count + bit // 8, 1 << bit % 8)
            for bit, name in enumerate(self.uncovered)
        ]
        return [
            (
                tuple(
                    tuple(names[value] for value in row[start:stop] if value)
                    for start, stop, names in units
                ),
                tuple(name for name, cell, bit in uncovered if row[cell] & bit),
            )
            for row in rows.tolist()
        ]

    def failed(self, rows: np.ndarray) -> np.ndarray:
        """The failed set of each row: a boolean per component, in model order."""
        failed = np.zeros((len(rows), len(self.names) + 1), dtype=bool)
        slots = rows[:, : self.slot_count]
        failed[np.arange(len(rows))[:, None], self._slot_component[self._slot_base + slots]] = True
        if self.uncovered:
            failed[:, self._uncovered_component] = np.unpackbits(
                rows[:, self.slot_count :], axis=1, count=len(self.uncovered), bitorder="little"
            )
        return failed[:, :-1]


@dataclass(eq=False)
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
    with_repairs:
        Whether repair transitions were generated (``False`` for the
        reliability model).
    encoding:
        The layout of :attr:`rows`.
    rows:
        The explored states, encoded, one row per state (index-aligned with
        the chain).  :attr:`states` decodes them.
    levels:
        The distinct service levels (exact :class:`fractions.Fraction`).
    level_ids:
        Per state, the position of its service level in :attr:`levels`.
    """

    model: ArcadeModel
    chain: CTMC
    reward_model: MarkovRewardModel
    with_repairs: bool
    encoding: StateEncoding
    rows: np.ndarray
    levels: tuple[Fraction, ...]
    level_ids: np.ndarray

    def __post_init__(self) -> None:
        self._lookup: tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    @property
    def num_states(self) -> int:
        return self.chain.num_states

    @property
    def num_transitions(self) -> int:
        return self.chain.num_transitions

    @property
    def states(self) -> list[ArcadeState]:
        """The explored states, decoded on each access (index-aligned with the chain)."""
        return self.encoding.decode(self.rows)

    @property
    def service_levels(self) -> list[Fraction]:
        """Exact service level per state, built on each access.

        For single states, index :attr:`levels` with :attr:`level_ids`.
        """
        return list(map(self.levels.__getitem__, self.level_ids.tolist()))

    def state_index(self, state: ArcadeState) -> int:
        if self._lookup is None:
            keys = _keys(self.rows)
            order = np.argsort(keys)
            self._lookup = (keys[order], order)
        keys, order = self._lookup
        key = _keys(self.encoding.encode(state)[None, :])
        spot = min(int(np.searchsorted(keys, key)[0]), len(keys) - 1)
        if keys[spot] != key[0]:
            raise ArcadeModelError(f"state {state!r} was not reached during expansion")
        return int(order[spot])

    def failed_components(self, state_index: int) -> frozenset[str]:
        """The failed components of a state."""
        (state,) = self.encoding.decode(self.rows[state_index : state_index + 1])
        return failed_components(state)

    def service_level_array(self) -> np.ndarray:
        """Service levels as a float vector (index-aligned with the chain)."""
        return np.array([float(level) for level in self.levels])[self.level_ids]

    def states_with_service_at_least(self, threshold: float | Fraction) -> np.ndarray:
        """Indices of states whose service level is at least ``threshold``.

        This is the set ``S_{sl(x)}`` of the paper.  Only the few distinct
        :attr:`levels` are compared (exactly) with :func:`service_threshold`
        of the threshold; :attr:`level_ids` maps the verdicts to states.
        """
        limit = service_threshold(threshold)
        attained = np.array([level >= limit for level in self.levels], dtype=bool)
        return np.flatnonzero(attained[self.level_ids])

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
    """The transition relation of an Arcade model, over encoded states.

    :func:`build_state_space` expands it into a CTMC; the simulator samples
    it.  Each distinct failed set is evaluated once, as a row of
    :attr:`table` whose id :meth:`set_ids` gives.
    """

    def __init__(self, model: ArcadeModel, with_repairs: bool = True) -> None:
        self.model = model
        self.with_repairs = with_repairs
        self.encoding = encoding = StateEncoding(model)
        self.table = FailedSetTable(model)
        # The packed failed-set masks in the table, sorted, and their ids.
        self._masks = np.zeros(0, dtype=np.dtype((np.void, encoding.mask_bytes)))
        self._mask_ids = np.zeros(0, dtype=np.intp)

        components = model.components_by_name()
        unit_of = {
            name: (position, value)
            for position, members in enumerate(encoding.unit_components)
            for value, name in enumerate(members, 1)
        }
        # One column per transition: a failure per component in model order,
        # then a repair per in-service slot, unit by unit.  Each column names
        # the unit whose queue a failure inserts into or a repair empties a
        # slot of (-1: none), the slot value inserted or the slot emptied,
        # and the cell and bit an uncovered failure sets (cell -1: none).
        columns = []
        for name in encoding.names:
            if name in unit_of:
                position, value = unit_of[name]
                columns.append((position, -1, value, -1, 0))
            else:
                bit = encoding.uncovered.index(name)
                columns.append((-1, -1, 0, encoding.slot_count + bit // 8, 1 << bit % 8))
        self._units = []
        repair_rates: list[float] = []
        repair_bases: list[int] = []
        repair_columns: list[int] = []
        for position, (unit, offset) in enumerate(zip(model.repair_units, encoding.offsets)):
            members = unit.components
            if unit.strategy is RepairStrategy.DEDICATED:
                keys: list = list(members)  # the queue is kept in name order
            else:
                keys = [unit.policy_key(components[name]) for name in members]
            order = sorted(set(keys))
            # The empty slot (value 0) ranks after every component.
            ranks = np.array([len(order), *(order.index(key) for key in keys)])
            clamp = (
                None
                if unit.preemptive or unit.strategy is RepairStrategy.DEDICATED
                else unit.effective_crews()
            )
            self._units.append((slice(offset, offset + len(members)), ranks, clamp))
            in_service = min(unit.effective_crews(), len(members)) if with_repairs else 0
            columns += [(-1, position, slot, -1, 0) for slot in range(in_service)]
            repair_columns += range(offset, offset + in_service)
            repair_bases += [len(repair_rates)] * in_service
            repair_rates += [0.0, *(components[name].repair_rate for name in members)]
        fail_unit, repair_unit, value, cell, bit = zip(*columns)
        self._fail_unit = np.array(fail_unit)
        self._repair_unit = np.array(repair_unit)
        self._value = np.array(value, dtype=_CELL)
        self._cell = np.array(cell)
        self._bit = np.array(bit, dtype=_CELL)
        self._repair_columns = np.array(repair_columns, dtype=np.intp)
        self._repair_bases = np.array(repair_bases, dtype=np.intp)
        self._repair_rates = np.array(repair_rates)

    # ------------------------------------------------------------------
    # failed sets
    # ------------------------------------------------------------------
    def set_ids(self, rows: np.ndarray) -> np.ndarray:
        """The failed-set id of each row.

        The sets not seen before join :attr:`table` in one batch, numbered
        in the order of their packed masks.
        """
        failed = self.encoding.failed(rows)
        masks, first, inverse = np.unique(
            _keys(np.packbits(failed, axis=1, bitorder="little")),
            return_index=True,
            return_inverse=True,
        )
        ids = _find(self._masks, self._mask_ids, masks)
        fresh = np.flatnonzero(ids < 0)
        if len(fresh):
            ids[fresh] = np.arange(len(self.table), len(self.table) + len(fresh))
            self.table.add(failed[first[fresh]])
            spots = np.searchsorted(self._masks, masks[fresh])
            self._masks = np.insert(self._masks, spots, masks[fresh])
            self._mask_ids = np.insert(self._mask_ids, spots, ids[fresh])
        return ids[inverse]

    def set_id(self, state: ArcadeState) -> int:
        """The failed-set id of ``state``: its row of :attr:`table`."""
        return int(self.set_ids(self.encoding.encode(state)[None, :])[0])

    # ------------------------------------------------------------------
    # transitions
    # ------------------------------------------------------------------
    def step(
        self, rows: np.ndarray, set_ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every enabled transition of a frontier of encoded states.

        ``set_ids`` are the rows' :meth:`set_ids`.  Returns ``(parents,
        successors, rates)``, one entry per transition: the position of its
        source in ``rows``, its encoded successor and its rate.  Transitions
        are ordered by source, then as :meth:`successors` lists them.
        """
        rates = self.table.rates[set_ids]
        enabled = rates > 0.0
        if len(self._repair_columns):
            slots = rows[:, self._repair_columns]
            rates = np.concatenate([rates, self._repair_rates[self._repair_bases + slots]], axis=1)
            enabled = np.concatenate([enabled, slots != 0], axis=1)
        parents, columns = np.nonzero(enabled)
        successors = rows[parents]
        values = self._value[columns]
        for position, (queue, ranks, clamp) in enumerate(self._units):
            failing = np.flatnonzero(self._fail_unit[columns] == position)
            if len(failing):
                successors[failing, queue] = _insert(
                    successors[failing, queue], values[failing], ranks, clamp
                )
            repaired = np.flatnonzero(self._repair_unit[columns] == position)
            if len(repaired):
                successors[repaired, queue] = _remove(successors[repaired, queue], values[repaired])
        failing = np.flatnonzero(self._cell[columns] >= 0)
        if len(failing):
            successors[failing, self._cell[columns[failing]]] |= self._bit[columns[failing]]
        return parents, successors, rates[parents, columns]

    def successors(self, state: ArcadeState) -> list[tuple[float, ArcadeState]]:
        """Every enabled transition of ``state`` as ``(rate, successor)``.

        Failures come first, in model order, then repairs per unit in
        service order; seeded simulations depend on this order.
        """
        row = self.encoding.encode(state)[None, :]
        _, successors, rates = self.step(row, self.set_ids(row))
        return list(zip(rates.tolist(), self.encoding.decode(successors)))


def _insert(
    queues: np.ndarray, values: np.ndarray, ranks: np.ndarray, clamp: int | None
) -> np.ndarray:
    """Each queue with its value inserted after every entry of no greater rank.

    A ``clamp`` (a non-preemptive unit's crews) keeps the value behind the
    entries in service.
    """
    positions = np.argmax(ranks[queues] > ranks[values][:, None], axis=1)
    if clamp is not None:
        positions = np.maximum(positions, np.minimum(np.count_nonzero(queues, axis=1), clamp))
    slots = np.arange(queues.shape[1])
    # Slot 0 of the result never comes from the rolled queue, so the wrapped
    # last slot (empty, as the queue is not full) is never read.
    return np.where(
        slots < positions[:, None],
        queues,
        np.where(slots == positions[:, None], values[:, None], np.roll(queues, 1, axis=1)),
    )


def _remove(queues: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Each queue without the entry at its position."""
    shifted = np.zeros_like(queues)
    shifted[:, :-1] = queues[:, 1:]
    return np.where(np.arange(queues.shape[1]) < positions[:, None], queues, shifted)


def build_state_space(
    model: ArcadeModel,
    with_repairs: bool = True,
    max_states: int | None = None,
) -> ArcadeStateSpace:
    """Expand ``model`` into an :class:`ArcadeStateSpace`.

    States are numbered breadth first, in order of discovery: by the index of
    the state first reaching them, then by the position of that transition
    in :meth:`ArcadeSemantics.successors`.

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
    frontier = semantics.encoding.encode(start_state(model))[None, :]
    frontier_sets = semantics.set_ids(frontier)
    rows, set_ids = [frontier], [frontier_sets]
    # The keys of the states numbered so far, sorted, and their numbers.
    known, numbers = _keys(frontier), np.zeros(1, dtype=np.intp)
    sources, targets, rates = [], [], []
    first, count = 0, 1
    while len(frontier):
        parents, successors, step_rates = semantics.step(frontier, frontier_sets)
        keys = _keys(successors)
        target = _find(known, numbers, keys)
        unknown = np.flatnonzero(target < 0)
        fresh, seen_at, inverse = np.unique(
            keys[unknown], return_index=True, return_inverse=True
        )
        if max_states is not None and count + len(fresh) > max_states:
            raise ArcadeModelError(f"state space exceeds the limit of {max_states} states")
        discovery = np.argsort(seen_at)
        fresh_numbers = np.empty(len(fresh), dtype=np.intp)
        fresh_numbers[discovery] = np.arange(count, count + len(fresh))
        target[unknown] = fresh_numbers[inverse]
        sources.append(first + parents)
        targets.append(target)
        rates.append(step_rates)

        spots = np.searchsorted(known, fresh)
        known = np.insert(known, spots, fresh)
        numbers = np.insert(numbers, spots, fresh_numbers)
        frontier = successors[unknown[seen_at[discovery]]]
        frontier_sets = semantics.set_ids(frontier)
        rows.append(frontier)
        set_ids.append(frontier_sets)
        first, count = count, count + len(fresh)

    table = semantics.table
    state_sets = np.concatenate(set_ids)
    levels = tuple(table.levels)
    level_ids = table.level_ids[state_sets]
    labels = {}
    if table.down is not None:
        down = table.down[state_sets]
        labels = {"down": down, "operational": ~down}
    labels["no_service"] = np.array([level == 0 for level in levels])[level_ids]
    labels["full_service"] = np.array([level == 1 for level in levels])[level_ids]
    # The builder's transition lists are COO arrays here, filled in one go.
    builder = CTMCBuilder(
        count,
        np.concatenate(sources),
        np.concatenate(targets),
        np.concatenate(rates),
        {name: mask for name, mask in labels.items() if mask.any()},
    )
    chain = builder.build({0: 1.0})
    cost = table.cost[state_sets]
    return ArcadeStateSpace(
        model=model,
        chain=chain,
        reward_model=MarkovRewardModel(chain, RewardStructure("cost", cost)),
        with_repairs=with_repairs,
        encoding=semantics.encoding,
        rows=np.concatenate(rows),
        levels=levels,
        level_ids=level_ids,
    )
