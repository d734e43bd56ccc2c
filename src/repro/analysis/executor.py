"""Execution: dispatch each planned group as one uniformization sweep.

For a regular group the executor stacks

* the union of all members' initial distributions (deduplicated
  bit-for-bit) into the sweep's ``(num_initials, num_states)`` block, and
* the union of all members' observable vectors — target indicators for
  reachability, reward-rate vectors for the reward kinds — into the sweep's
  ``(num_states, num_rewards)`` reward matrix,

then calls :func:`repro.ctmc.uniformization.evaluate_grid_block` exactly
once, so the whole group shares a single vector-power sweep and one
Fox–Glynn table.  Reachability rides on the reward axis: with the target
states absorbed, ``P[ safe U^{<=t} target ]`` is the instantaneous
"reward" of the target-indicator vector.

Interval-until groups (CSL ``U[a, b]``) are the one exception: they need a
backward sweep on the target-absorbed chain for the ``[a, b]`` phase and a
forward sweep on the safe-restricted chain for the ``[0, a]`` phase.  The
backward phase is :func:`backward_values`, the one per-state value sweep
that the CSL checker and the rollout optimizer run as well.  All
interval groups that agree on the (base chain, safe, target, lower,
epsilon) signature — i.e. differ only in their time grids — are bundled
into one :class:`ExecutionUnit`: the backward phase runs once over the
union of every grid's residual horizons (merged with a relative tolerance,
so 1-ULP grid-arithmetic noise does not spawn near-duplicate Fox–Glynn
rows) and the forward phase runs once with every grid's value vectors
stacked on the reward axis, so ``G`` grids cost two sweeps total instead
of two each.

Long-run groups (steady state, unbounded reachability, reachability
rewards) never sweep at all: each becomes one unit that routes through the
cached linear-solver engine (:mod:`repro.ctmc.linsolve`) — at most one LU
factorization per group, its members' observables stacked as right-hand-side
columns, and BSCC decompositions / stationary vectors / factorizations
fetched from the artifact cache.

When the planner attached a quotient (:class:`~repro.analysis.planner.LumpedChain`),
the sweep runs on the quotient chain: initial distributions are projected
blockwise and the observable vectors are restricted to one value per block
(they are block-constant on the partition, which the planner checked).
This covers long-run groups too — their BSCC decomposition and restricted
solves run on the quotient, whose factorizations persist in the cache
under the quotient chain's own fingerprint.  Interval bundles take both
of their transforms on the one quotient of the base chain: the backward
phase absorbs the decided blocks, and since its values are then
block-constant, the forward phase walks the same partition with the
non-safe blocks absorbed — no second refinement.

The plan is materialised as a list of :class:`ExecutionUnit` objects
(:func:`execution_units`), each independently runnable: the scenario
service executes units concurrently on a worker pool and fails one unit's
requests without touching the others, while :func:`execute_plan` simply
runs them in order.  Every unit runs against the artifact cache
(:class:`~repro.ctmc.artifacts.ArtifactCache`) its session or service owns,
which supplies transformed chains, uniformized and densified operators,
Fox–Glynn tables and long-run solver artifacts to every unit and plan that
shares it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.ctmc.ctmc import CTMC, CTMCError
from repro.ctmc.dtmc import unbounded_reachability
from repro.ctmc.engines import sweep_engine
from repro.ctmc.linsolve import (
    LinearSolveStats,
    SolverEngine,
    expected_values_under,
    reachability_reward_values,
)
from repro.ctmc.steady_state import steady_state_distribution_block
from repro.ctmc.uniformization import (
    UniformizationStats,
    evaluate_grid_block,
    poisson_mixture_sweep,
)
from repro.analysis.planner import ExecutionGroup, ExecutionPlan
from repro.analysis.requests import MeasureKind, MeasureResult

#: Relative tolerance merging near-identical residual horizons of bundled
#: interval grids (``times - lower`` produces 1-ULP noise across grids).
#: The induced value error is bounded by ``q·t·rtol`` per sweep — orders of
#: magnitude below the Poisson truncation epsilon.
HORIZON_MERGE_RTOL = 1e-12


class _ColumnPool:
    """Deduplicate vectors bit-for-bit while preserving first-seen order."""

    def __init__(self) -> None:
        self._index: dict[bytes, int] = {}
        self._vectors: list[np.ndarray] = []

    def add(self, vector: np.ndarray) -> int:
        key = vector.tobytes()
        position = self._index.get(key)
        if position is None:
            position = len(self._vectors)
            self._index[key] = position
            self._vectors.append(vector)
        return position

    def stack(self) -> np.ndarray:
        return np.stack(self._vectors)

    def __len__(self) -> int:
        return len(self._vectors)


# ----------------------------------------------------------------------
# execution units
# ----------------------------------------------------------------------
@dataclass
class ExecutionUnit:
    """An independently runnable slice of an execution plan.

    Either a single regular group, or a bundle of interval-until groups
    sharing a (base chain, safe, target, lower, epsilon) signature.  Units
    touch disjoint ``results`` slots, so the scenario service may run them
    concurrently on worker threads.
    """

    groups: list[tuple[int, ExecutionGroup]]
    interval: bool = False
    longrun: bool = False

    @property
    def request_indices(self) -> list[int]:
        """Indices (into the plan's request list) this unit will resolve."""
        return [
            member.index for _, group in self.groups for member in group.members
        ]

    def run(
        self,
        results: list[MeasureResult | None],
        artifacts: Any,
        engine_stats: UniformizationStats | None = None,
        linear_stats: LinearSolveStats | None = None,
    ) -> None:
        """Execute this unit against ``artifacts``, writing each member's
        result into ``results``.

        The artifact cache is thread-safe, so the scenario service runs
        units of one plan concurrently against its one cache.
        """
        if self.longrun:
            group_index, group = self.groups[0]
            _execute_longrun_group(group, group_index, results, linear_stats, artifacts)
        elif self.interval:
            _execute_interval_bundle(self.groups, results, engine_stats, artifacts)
        else:
            group_index, group = self.groups[0]
            _execute_group(group, group_index, results, engine_stats, artifacts)


def execution_units(plan: ExecutionPlan) -> list[ExecutionUnit]:
    """Split ``plan`` into independently runnable units.

    Regular groups become one unit each.  Interval groups that agree on the
    full (base chain, target, safe, lower, epsilon) signature are bundled so
    their backward and forward phases are shared (see module docstring).
    """
    units: list[ExecutionUnit] = []
    interval_bundles: dict[tuple, ExecutionUnit] = {}
    for group_index, group in enumerate(plan.groups):
        if group.longrun:
            units.append(ExecutionUnit(groups=[(group_index, group)], longrun=True))
            continue
        if not group.interval:
            units.append(ExecutionUnit(groups=[(group_index, group)]))
            continue
        first = group.members[0]
        signature = (
            group.chain.fingerprint,
            first.target_mask.tobytes(),
            first.safe_mask.tobytes(),
            float(first.request.lower),
            float(group.epsilon),
        )
        bundle = interval_bundles.get(signature)
        if bundle is None:
            bundle = ExecutionUnit(groups=[], interval=True)
            interval_bundles[signature] = bundle
            units.append(bundle)
        bundle.groups.append((group_index, group))
    return units


def execute_plan(
    plan: ExecutionPlan,
    *,
    artifacts: Any,
    engine_stats: UniformizationStats | None = None,
    linear_stats: LinearSolveStats | None = None,
) -> list[MeasureResult]:
    """Run every group of ``plan`` against ``artifacts`` and return results
    in request order."""
    results: list[MeasureResult | None] = [None] * plan.num_requests
    for unit in execution_units(plan):
        unit.run(results, artifacts, engine_stats, linear_stats)
    return results  # type: ignore[return-value]


# ----------------------------------------------------------------------
# regular groups: one forward sweep
# ----------------------------------------------------------------------
def _execute_group(
    group: ExecutionGroup,
    group_index: int,
    results: list[MeasureResult | None],
    engine_stats: UniformizationStats | None,
    artifacts: Any,
) -> None:
    initial_pool = _ColumnPool()
    reward_pool = _ColumnPool()
    member_rows: list[list[int]] = []
    member_columns: list[int | None] = []
    need_distributions = need_instantaneous = need_cumulative = False

    for member in group.members:
        member_rows.append([initial_pool.add(row) for row in member.initials])
        kind = member.kind
        if kind is MeasureKind.TRANSIENT:
            need_distributions = True
            member_columns.append(None)
        elif kind is MeasureKind.REACHABILITY:
            need_instantaneous = True
            member_columns.append(reward_pool.add(member.target_mask.astype(float)))
        elif kind is MeasureKind.INSTANTANEOUS_REWARD:
            need_instantaneous = True
            member_columns.append(reward_pool.add(member.rewards))
        elif kind is MeasureKind.CUMULATIVE_REWARD:
            need_cumulative = True
            member_columns.append(reward_pool.add(member.rewards))
        else:  # pragma: no cover - the planner routes interval kinds elsewhere
            raise AssertionError(f"unexpected kind {kind} in a regular group")

    chain = group.chain
    initial_block = initial_pool.stack()
    reward_matrix = reward_pool.stack().T if len(reward_pool) else None
    lumped = group.lumped
    if lumped is not None:
        chain = lumped.quotient
        initial_block = lumped.project_distributions(initial_block)
        if reward_matrix is not None:
            reward_matrix = lumped.project_statewise(reward_matrix)

    block_result = evaluate_grid_block(
        chain,
        group.times,
        initial_block,
        rewards_matrix=reward_matrix,
        distributions=need_distributions,
        instantaneous=need_instantaneous,
        cumulative=need_cumulative,
        epsilon=group.epsilon,
        stats=engine_stats,
        artifacts=artifacts,
    )

    lumped_states = lumped.num_blocks if lumped is not None else None
    for member, rows, column in zip(group.members, member_rows, member_columns):
        kind = member.kind
        if kind is MeasureKind.TRANSIENT:
            values = block_result.distributions[rows]
        elif kind is MeasureKind.REACHABILITY:
            values = np.clip(block_result.instantaneous[rows][:, :, column], 0.0, 1.0)
        elif kind is MeasureKind.INSTANTANEOUS_REWARD:
            values = block_result.instantaneous[rows][:, :, column]
        else:  # CUMULATIVE_REWARD
            values = block_result.cumulative[rows][:, :, column]
        results[member.index] = MeasureResult(
            request=member.request,
            times=member.times.copy(),
            values=values,
            group_index=group_index,
            lumped_states=lumped_states,
            _squeeze=member.squeeze,
        )


# ----------------------------------------------------------------------
# long-run groups: one cached-factorization solve, all RHS columns stacked
# ----------------------------------------------------------------------
def _execute_longrun_group(
    group: ExecutionGroup,
    group_index: int,
    results: list[MeasureResult | None],
    linear_stats: LinearSolveStats | None,
    artifacts: Any,
) -> None:
    """Execute a steady-state / unbounded-reachability / reachability-reward group.

    The group's members agree on the restricted linear system (the planner
    grouped them by subset signature), so the whole group costs at most one
    factorization — fetched from the artifact cache — with every member's
    observable batched as a right-hand-side column and every member's
    initial distributions reduced by plain dense algebra.

    When the planner attached a quotient, everything — the BSCC
    decomposition, the stationary vectors, the restricted solves and their
    factorizations — runs on the quotient chain (whose own fingerprint
    keys those artifacts in the cache): ordinary lumpability preserves
    steady-state observables, unbounded reachability values and
    reachability rewards, since the seeded partition keeps every member's
    target/safe indicator and reward vector block-constant.
    """
    engine = SolverEngine(artifacts=artifacts, stats=linear_stats)
    chain = group.chain
    lumped = group.lumped
    if lumped is not None:
        chain = lumped.quotient

    def statewise(vector: np.ndarray) -> np.ndarray:
        return lumped.project_statewise(vector) if lumped is not None else vector

    def distributions_of(block: np.ndarray) -> np.ndarray:
        return lumped.project_distributions(block) if lumped is not None else block

    kind = group.members[0].kind

    if kind is MeasureKind.STEADY_STATE:
        initial_pool = _ColumnPool()
        member_rows = [
            [initial_pool.add(row) for row in member.initials]
            for member in group.members
        ]
        distributions = steady_state_distribution_block(
            chain, distributions_of(initial_pool.stack()), engine=engine
        )
        member_values = [
            distributions[rows]
            @ statewise(
                member.target_mask.astype(float)
                if member.target_mask is not None
                else member.rewards
            )
            for member, rows in zip(group.members, member_rows)
        ]
    elif kind is MeasureKind.UNBOUNDED_REACHABILITY:
        first = group.members[0]
        per_state = unbounded_reachability(
            chain,
            statewise(first.target_mask),
            statewise(first.safe_mask),
            engine=engine,
        )
        member_values = [
            np.clip(distributions_of(member.initials) @ per_state, 0.0, 1.0)
            for member in group.members
        ]
    else:  # REACHABILITY_REWARD
        reward_pool = _ColumnPool()
        member_columns = [reward_pool.add(member.rewards) for member in group.members]
        values_matrix = reachability_reward_values(
            chain,
            statewise(group.members[0].target_mask),
            statewise(reward_pool.stack().T),
            engine=engine,
        )
        member_values = [
            expected_values_under(
                distributions_of(member.initials), values_matrix[:, [column]]
            )[:, 0]
            for member, column in zip(group.members, member_columns)
        ]

    lumped_states = lumped.num_blocks if lumped is not None else None
    for member, values in zip(group.members, member_values):
        results[member.index] = MeasureResult(
            request=member.request,
            times=member.times.copy(),
            values=np.asarray(values, dtype=float).reshape(-1, 1),
            group_index=group_index,
            lumped_states=lumped_states,
            _squeeze=member.squeeze,
        )


# ----------------------------------------------------------------------
# per-state values: one backward sweep
# ----------------------------------------------------------------------
def backward_values(
    chain: CTMC,
    values: np.ndarray,
    horizons: Sequence[float] | np.ndarray,
    *,
    cumulative: bool = False,
    epsilon: float,
    stats: UniformizationStats | None = None,
    artifacts: Any,
) -> np.ndarray:
    """Per-state values of ``values`` at every horizon, from one backward sweep.

    Walks ``u_{k+1} = P u_k`` from ``u_0 = values`` over the uniformized
    matrix ``P`` of ``chain`` as given (callers absorb target or blocked
    states first) and returns a ``(len(horizons), num_states)`` array.  Row
    ``i`` is ``Σ_k w_i(k) · u_k`` with the Fox–Glynn weights of ``q·t_i``:
    the expected value of ``values`` at time ``t_i`` from each start state.
    With ``cumulative=True`` the weights are ``P[N(q·t_i) > k] / q`` and
    row ``i`` is each start state's expected reward accumulated over
    ``[0, t_i]``.  The positive horizons are the rows of one Fox–Glynn
    table (its tails table when cumulative), shared with every other sweep
    at ``q`` on the same horizons, and all rows share one walk; horizons
    may be unsorted and repeat.  The walk runs on the engine
    :func:`repro.ctmc.engines.sweep_engine` builds for ``P``; ``artifacts``
    (an :class:`~repro.ctmc.artifacts.ArtifactCache`) serves ``P`` itself,
    the Fox–Glynn tables and any densified operator.
    """
    horizon_array = np.asarray(horizons, dtype=float)
    if horizon_array.ndim != 1:
        raise CTMCError("time grid must be one-dimensional")
    if not np.all(np.isfinite(horizon_array)):
        raise CTMCError("time points must be finite")
    if np.any(horizon_array < 0):
        raise CTMCError("time points must be non-negative")
    start = np.asarray(values, dtype=float)
    unique_horizons, inverse = np.unique(horizon_array, return_inverse=True)
    per_state = np.empty((unique_horizons.shape[0], chain.num_states))
    per_state[:] = 0.0 if cumulative else start
    positive = np.flatnonzero(unique_horizons > 0.0)
    if positive.size and chain.max_exit_rate == 0.0:
        # No transitions: every state keeps its value for the whole horizon.
        per_state[positive] = (
            unique_horizons[positive, None] * start if cumulative else start
        )
    elif positive.size:
        engine, q = sweep_engine(chain, artifacts, backward=True)
        table = artifacts.poisson_table(
            q, unique_horizons[positive], epsilon, tails=cumulative
        )
        weights = table.matrix
        if cumulative:
            # Accumulated reward weighs u_k by P[N > k] / q, the head included.
            weights = table.from_zero()
            weights.data /= q
        mixtures, _ = poisson_mixture_sweep(
            None, start, weights, stats=stats, engine=engine
        )
        per_state[positive] = mixtures
    return per_state[inverse]


# ----------------------------------------------------------------------
# interval-until bundles: one backward [a, t] phase shared by every grid,
# then one forward [0, a] phase with all grids' value vectors stacked
# ----------------------------------------------------------------------
def _merge_close_horizons(
    group_horizons: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Union of the bundled grids' residual horizons, merged tolerantly.

    ``times - lower`` computed per grid yields horizons that differ by an
    ULP between grids even when the grids were meant to coincide; exact
    ``np.unique`` would keep both and spawn near-duplicate Fox–Glynn
    rows.  Adjacent sorted values whose gap is within
    :data:`HORIZON_MERGE_RTOL` (relative to their magnitude) share one
    cluster, represented by the cluster's smallest member — exact zeros
    always form their own cluster, so the t = a grid points stay exact.

    Returns ``(representatives, cluster_of)`` where ``cluster_of`` maps
    each position of ``np.concatenate(group_horizons)`` to its cluster.
    """
    concatenated = np.concatenate(group_horizons)
    order = np.argsort(concatenated, kind="stable")
    sorted_values = concatenated[order]
    gaps = np.diff(sorted_values)
    scale = np.maximum(np.abs(sorted_values[1:]), np.abs(sorted_values[:-1]))
    starts_cluster = gaps > HORIZON_MERGE_RTOL * scale
    cluster_of_sorted = np.concatenate(
        ([0], np.cumsum(starts_cluster))
    ) if sorted_values.size else np.zeros(0, dtype=int)
    first_positions = (
        np.concatenate(([0], np.flatnonzero(starts_cluster) + 1))
        if sorted_values.size
        else np.zeros(0, dtype=int)
    )
    representatives = sorted_values[first_positions]
    cluster_of = np.empty(concatenated.shape[0], dtype=int)
    cluster_of[order] = cluster_of_sorted
    return representatives, cluster_of


def _execute_interval_bundle(
    entries: list[tuple[int, ExecutionGroup]],
    results: list[MeasureResult | None],
    engine_stats: UniformizationStats | None,
    artifacts: Any,
) -> None:
    first_group = entries[0][1]
    first = first_group.members[0]
    target_mask = first.target_mask
    safe_mask = first.safe_mask
    lower = float(first.request.lower)
    epsilon = first_group.epsilon
    base = first_group.chain

    # With lumping, both phases walk transforms of the planner's quotient of
    # the base chain: every vector below is projected to one value per
    # block and every distribution to its block masses.
    lumped = first_group.lumped
    chain = base if lumped is None else lumped.quotient

    def statewise(vector: np.ndarray) -> np.ndarray:
        return vector if lumped is None else lumped.project_statewise(vector)

    # Phase 2 (backward): per-state P[ safe U^{<= t-a} target ] on the chain
    # with decided states absorbed, for every residual horizon appearing in
    # *any* bundled grid — one sweep over the (tolerantly merged) union.
    # A quotient's own (smaller) uniformization rate keys its Fox–Glynn
    # table, so the lumped and unlumped bundles never share tables.
    absorbing = target_mask | ~(safe_mask | target_mask)
    unique_horizons, cluster_of = _merge_close_horizons(
        [np.maximum(group.times - lower, 0.0) for _, group in entries]
    )
    per_state = np.clip(
        backward_values(
            artifacts.transformed_chain(chain, statewise(absorbing)),
            statewise(target_mask.astype(float)),
            unique_horizons,
            epsilon=epsilon,
            stats=engine_stats,
            artifacts=artifacts,
        ),
        0.0,
        1.0,
    )

    # Phase 1 (forward): evolve every initial distribution through the
    # safe-restricted chain for time a, then weigh it against the phase-2
    # value vectors — one instantaneous-reward sweep whose reward axis
    # stacks every bundled grid's columns.  The planner routes a = 0 to the
    # plain reachability path, so here a > 0 and zeroing the non-safe rows
    # is sound: a path sitting in a non-safe state strictly before time a
    # has already failed the until formula.
    initial_pool = _ColumnPool()
    member_rows = [
        [
            [initial_pool.add(row) for row in member.initials]
            for member in group.members
        ]
        for _, group in entries
    ]
    initial_block = initial_pool.stack()
    if lumped is not None:
        initial_block = lumped.project_distributions(initial_block)
    blocked = statewise(~safe_mask)
    value_columns = per_state[cluster_of].T  # (states, sum of grid sizes)
    value_columns = np.where(blocked[:, None], 0.0, value_columns)
    phase1 = evaluate_grid_block(
        artifacts.transformed_chain(chain, blocked),
        np.array([lower]),
        initial_block,
        rewards_matrix=value_columns,
        distributions=False,
        instantaneous=True,
        epsilon=epsilon,
        stats=engine_stats,
        artifacts=artifacts,
    )
    per_initial = np.clip(phase1.instantaneous[:, 0, :], 0.0, 1.0)

    lumped_states = lumped.num_blocks if lumped is not None else None
    offset = 0
    for (group_index, group), rows_per_member in zip(entries, member_rows):
        width = group.times.shape[0]
        columns = np.arange(offset, offset + width)
        offset += width
        for member, rows in zip(group.members, rows_per_member):
            results[member.index] = MeasureResult(
                request=member.request,
                times=member.times.copy(),
                values=per_initial[np.ix_(rows, columns)],
                group_index=group_index,
                lumped_states=lumped_states,
                _squeeze=member.squeeze,
            )
