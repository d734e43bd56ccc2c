"""Execution: dispatch each planned group as one uniformization sweep.

For a regular group the executor stacks

* the union of all members' initial distributions (deduplicated
  bit-for-bit) into the sweep's ``(num_initials, num_states)`` block, and
* the union of all members' observable vectors — target indicators for
  reachability, reward-rate vectors for the reward kinds — into the sweep's
  ``(num_states, num_rewards)`` reward matrix,

then calls :func:`repro.ctmc.uniformization.evaluate_grid_block` exactly
once, so the whole group shares a single vector-power sweep and one set of
Fox–Glynn windows.  Reachability rides on the reward axis: with the target
states absorbed, ``P[ safe U^{<=t} target ]`` is the instantaneous
"reward" of the target-indicator vector.

Interval-until groups (CSL ``U[a, b]``) are the one exception: they need a
backward sweep on the target-absorbed chain for the ``[a, b]`` phase and a
forward sweep on the safe-restricted chain for the ``[0, a]`` phase.  All
interval groups that agree on the (base chain, safe, target, lower,
epsilon) signature — i.e. differ only in their time grids — are bundled
into one :class:`ExecutionUnit`: the backward phase runs once over the
union of every grid's residual horizons (merged with a relative tolerance,
so 1-ULP grid-arithmetic noise does not spawn near-duplicate Fox–Glynn
windows) and the forward phase runs once with every grid's value vectors
stacked on the reward axis, so ``G`` grids cost two sweeps total instead
of two each.

Long-run groups (steady state, unbounded reachability, reachability
rewards) never sweep at all: each becomes one unit that routes through the
cached linear-solver engine (:mod:`repro.ctmc.linsolve`) — at most one LU
factorization per group, its members' observables stacked as right-hand-side
columns, and BSCC decompositions / stationary vectors / factorizations
fetched from the artifact cache when one is attached.

When the planner attached a quotient (:class:`~repro.analysis.planner.LumpedChain`),
the sweep runs on the quotient chain: initial distributions are projected
blockwise and the observable vectors are restricted to one value per block
(they are block-constant by construction of the lumping partition).  This
covers long-run groups too — their BSCC decomposition and restricted
solves run on the quotient, whose factorizations persist in the cache
under the quotient chain's own fingerprint.  Interval bundles use **two**
quotients: the planner's backward quotient of the target-absorbed chain
(values are lifted back to full states between the phases) and a
forward-phase quotient of the safe-restricted chain that the executor
builds here, seeded with the quantized phase-2 value vectors — the seeds
only exist once the backward sweep ran.  Both live in the cache under the
``quotient`` kind, so warm bundles skip both refinements.

The plan is materialised as a list of :class:`ExecutionUnit` objects
(:func:`execution_units`), each independently runnable: the scenario
service executes units concurrently on a worker pool and fails one unit's
requests without touching the others, while :func:`execute_plan` simply
runs them in order.  An optional artifact cache
(:class:`repro.service.ArtifactCache`) supplies transformed chains,
uniformized operators and Fox–Glynn windows across plans.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.ctmc.ctmc import CTMC
from repro.ctmc.dtmc import unbounded_reachability
from repro.ctmc.engines import EngineSelector
from repro.ctmc.foxglynn import fox_glynn
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
from repro.analysis.planner import (
    ExecutionGroup,
    ExecutionPlan,
    LumpedChain,
    cached_quotient,
    observable_signature,
)
from repro.analysis.requests import MeasureKind, MeasureResult

#: Relative tolerance merging near-identical residual horizons of bundled
#: interval grids (``times - lower`` produces 1-ULP noise across grids).
#: The induced value error is bounded by ``q·t·rtol`` per sweep — orders of
#: magnitude below the Poisson truncation epsilon.
HORIZON_MERGE_RTOL = 1e-12

#: Decimals the forward-phase lumping seeds are rounded to.  States whose
#: phase-2 values agree to this quantum may share a block, bounding the
#: lumped-vs-unlumped deviation by the quantum (5e-13 < the 1e-12 gate)
#: while letting the refinement collapse states whose values differ only
#: by accumulated rounding noise.
_FORWARD_SEED_DECIMALS = 12


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
        engine_stats: UniformizationStats | None = None,
        artifacts: Any | None = None,
        linear_stats: LinearSolveStats | None = None,
        solver: SolverEngine | None = None,
    ) -> None:
        """Execute this unit, writing each member's result into ``results``.

        ``solver`` optionally shares one :class:`SolverEngine` across units
        (so artifact-less plans still reuse e.g. the embedded matrix between
        long-run groups of one chain); callers running units concurrently —
        the scenario service — omit it and rely on the thread-safe artifact
        cache instead.
        """
        if self.longrun:
            group_index, group = self.groups[0]
            _execute_longrun_group(
                group, group_index, results, linear_stats, artifacts, solver
            )
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
        if not plan.batched:
            # Comparison mode: the unbatched baseline must sweep every
            # request independently, so interval groups stay unbundled too.
            units.append(ExecutionUnit(groups=[(group_index, group)], interval=True))
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
    engine_stats: UniformizationStats | None = None,
    artifacts: Any | None = None,
    linear_stats: LinearSolveStats | None = None,
) -> list[MeasureResult]:
    """Run every group of ``plan`` and return results in request order."""
    results: list[MeasureResult | None] = [None] * plan.num_requests
    solver = SolverEngine(artifacts=artifacts, stats=linear_stats)
    for unit in execution_units(plan):
        unit.run(results, engine_stats, artifacts, linear_stats, solver)
    return results  # type: ignore[return-value]


# ----------------------------------------------------------------------
# cache plumbing
# ----------------------------------------------------------------------
def _transformed(base: CTMC, mask: np.ndarray, artifacts: Any | None) -> CTMC:
    """The absorbing transform of ``base``, via the artifact cache if given."""
    if artifacts is not None:
        return artifacts.transformed_chain(base, mask)
    return base.make_absorbing(mask)


def _lookups(artifacts: Any | None) -> dict[str, Any]:
    """``evaluate_grid_block`` keyword hooks backed by the artifact cache."""
    if artifacts is None:
        return {}
    return {
        "window_lookup": artifacts.fox_glynn_window,
        "operator_lookup": artifacts.uniformized_transpose,
    }


# ----------------------------------------------------------------------
# regular groups: one forward sweep
# ----------------------------------------------------------------------
def _execute_group(
    group: ExecutionGroup,
    group_index: int,
    results: list[MeasureResult | None],
    engine_stats: UniformizationStats | None,
    artifacts: Any | None = None,
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
        engine=group.engine,
        dtype=group.dtype,
        selector=EngineSelector(artifacts),
        **_lookups(artifacts),
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
    artifacts: Any | None = None,
    solver: SolverEngine | None = None,
) -> None:
    """Execute a steady-state / unbounded-reachability / reachability-reward group.

    The group's members agree on the restricted linear system (the planner
    grouped them by subset signature), so the whole group costs at most one
    factorization — fetched from the artifact cache when one is attached —
    with every member's observable batched as a right-hand-side column and
    every member's initial distributions reduced by plain dense algebra.

    When the planner attached a quotient, everything — the BSCC
    decomposition, the stationary vectors, the restricted solves and their
    factorizations — runs on the quotient chain (whose own fingerprint
    keys those artifacts in the cache): ordinary lumpability preserves
    steady-state observables, unbounded reachability values and
    reachability rewards, since the seeded partition keeps every member's
    target/safe indicator and reward vector block-constant.
    """
    # A forced (non-"auto") group mode cannot reuse the shared auto-mode
    # solver: its factorization backend — and therefore its cache tokens —
    # differ (see :class:`repro.ctmc.linsolve.SolverEngine`).
    if solver is not None and solver.mode == group.engine:
        engine = solver
    else:
        engine = SolverEngine(
            artifacts=artifacts, stats=linear_stats, mode=group.engine
        )
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
    windows.  Adjacent sorted values whose gap is within
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


def _forward_interval_quotient(
    restricted: CTMC,
    value_columns: np.ndarray,
    artifacts: Any | None,
) -> LumpedChain | None:
    """The forward-phase quotient of the safe-restricted chain.

    Seeded with the *joint* class of the quantized phase-2 value vectors:
    two states may share a block only when every stacked value column
    agrees on them to the rounding quantum (after which ordinary
    lumpability refinement runs as usual).  Combining the columns into one
    row-identity observable keeps the seeding cost at one ``np.unique``
    over rows instead of one label mask per (column, value) pair.

    The cache signature hashes the quantized columns themselves — the
    backward phase is deterministic, so a warm repeat of the same bundle
    reproduces the same bytes and hits.  A failed build degrades to the
    full restricted chain with a one-time warning (and leaves a tombstone
    behind when a cache is attached, like the planner-side quotients).
    """
    quantized = np.round(value_columns, _FORWARD_SEED_DECIMALS)
    _, combined = np.unique(quantized, axis=0, return_inverse=True)
    signature = "interval-forward|" + observable_signature([quantized])
    try:
        return cached_quotient(
            restricted,
            [np.asarray(combined, dtype=float)],
            artifacts,
            signature=signature,
        )
    except Exception as error:
        warnings.warn(
            f"interval forward-phase lumping failed for a "
            f"{restricted.num_states}-state chain "
            f"({type(error).__name__}: {error}); sweeping the full chain",
            RuntimeWarning,
            stacklevel=2,
        )
        return None


def _execute_interval_bundle(
    entries: list[tuple[int, ExecutionGroup]],
    results: list[MeasureResult | None],
    engine_stats: UniformizationStats | None,
    artifacts: Any | None = None,
) -> None:
    first_group = entries[0][1]
    first = first_group.members[0]
    target_mask = first.target_mask
    safe_mask = first.safe_mask
    lower = float(first.request.lower)
    epsilon = first_group.epsilon
    base = first_group.chain
    selector = EngineSelector(artifacts)

    # Phase 2 (backward): per-state P[ safe U^{<= t-a} target ] on the chain
    # with decided states absorbed, for every residual horizon appearing in
    # *any* bundled grid — one sweep over the (tolerantly merged) union.
    # With lumping the sweep walks the planner's quotient of the absorbed
    # chain and the per-block values are lifted back to full states; the
    # quotient's own (smaller) uniformization rate keys its Fox–Glynn
    # windows, so the lumped and unlumped bundles never share windows.
    absorbing = target_mask | ~(safe_mask | target_mask)
    backward_lumped = first_group.lumped
    backward_chain = (
        backward_lumped.quotient
        if backward_lumped is not None
        else _transformed(base, absorbing, artifacts)
    )
    group_horizons = [
        np.maximum(group.times - lower, 0.0) for _, group in entries
    ]
    unique_horizons, cluster_of = _merge_close_horizons(group_horizons)
    per_state = np.empty((unique_horizons.shape[0], base.num_states))
    indicator = target_mask.astype(float)
    start = (
        backward_lumped.project_statewise(indicator)
        if backward_lumped is not None
        else indicator
    )
    positive = np.flatnonzero(unique_horizons > 0.0)
    make_window = fox_glynn if artifacts is None else artifacts.fox_glynn_window
    if positive.size and backward_chain.max_exit_rate > 0.0:
        probabilities, q2 = backward_chain.uniformized_matrix()
        windows = [
            make_window(q2 * float(unique_horizons[i]), epsilon) for i in positive
        ]
        # The backward value sweep routes through the engine layer like the
        # forward phases do (dense chains get the BLAS walk), always on the
        # float64 lane: the float32 renormalization trick assumes a
        # mass-conserving forward operator, which a value sweep is not.
        backward_engine = selector.engine_for(
            backward_chain,
            probabilities,
            q2,
            mode=first_group.engine,
            dtype="float64",
            backward=True,
        )
        mixtures, _ = poisson_mixture_sweep(
            probabilities,
            start,
            windows,
            stats=engine_stats,
            engine=backward_engine,
        )
        for window_index, horizon_index in enumerate(positive):
            values = np.clip(mixtures[window_index], 0.0, 1.0)
            per_state[horizon_index] = (
                backward_lumped.lift_statewise(values)
                if backward_lumped is not None
                else values
            )
        zero_horizons = np.flatnonzero(unique_horizons == 0.0)
    else:
        # Either every horizon is zero, or the (possibly lumped) chain has
        # no between-block transitions left — values stay at the indicator.
        zero_horizons = np.arange(unique_horizons.shape[0])
    per_state[zero_horizons] = indicator

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
    column_indices = cluster_of
    value_columns = per_state[column_indices].T  # (num_states, sum of grid sizes)
    blocked = ~safe_mask
    value_columns = np.where(blocked[:, None], 0.0, value_columns)

    restricted = _transformed(base, blocked, artifacts)
    forward_lumped = (
        _forward_interval_quotient(restricted, value_columns, artifacts)
        if first_group.lump
        else None
    )
    sweep_chain = restricted
    sweep_initials = initial_block
    sweep_columns = value_columns
    if forward_lumped is not None:
        sweep_chain = forward_lumped.quotient
        sweep_initials = forward_lumped.project_distributions(initial_block)
        sweep_columns = forward_lumped.project_statewise(value_columns)
    phase1 = evaluate_grid_block(
        sweep_chain,
        np.array([lower]),
        sweep_initials,
        rewards_matrix=sweep_columns,
        distributions=False,
        instantaneous=True,
        epsilon=epsilon,
        stats=engine_stats,
        engine=first_group.engine,
        dtype=first_group.dtype,
        selector=selector,
        **_lookups(artifacts),
    )
    per_initial = np.clip(phase1.instantaneous[:, 0, :], 0.0, 1.0)

    lumped_states = None
    if backward_lumped is not None:
        lumped_states = backward_lumped.num_blocks
    elif forward_lumped is not None:
        lumped_states = forward_lumped.num_blocks
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
