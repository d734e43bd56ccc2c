"""Single-pass uniformization engine for time-grid measures.

Every figure of the paper is a *curve*: survivability, reliability or cost
evaluated on a 46–101-point time grid.  Evaluating each grid point
independently restarts the uniformization recursion ``π₀·Pᵏ`` from ``k = 0``,
costing ``Σᵢ Rᵢ`` sparse matrix–vector products for right truncation points
``Rᵢ``.  The engine in this module walks the vector-power sequence
``π₀·Pᵏ`` exactly **once** per chain and folds all requested time points
into per-time accumulators during that single sweep, costing ``max_i Rᵢ``
products instead — a roughly ``points/2``-fold reduction on fine grids.

The sweep is *batched* along two further axes:

* **initial distributions** — ``start`` may be a ``(num_initials,
  num_states)`` block; the whole block is propagated through one sparse
  mat–mat product per step, so per-disaster curves on the same chain share
  a single matrix traversal (see ROADMAP: multi-initial-distribution
  batching), and
* **reward vectors** — ``rewards`` may be a ``(num_states, num_rewards)``
  matrix; every column's scalar sequence ``(π₀ Pᵏ)·ρⱼ`` is folded in during
  the same sweep.  Time-bounded reachability rides on this axis too: the
  probability of sitting in an (absorbing) target set at time ``t`` is the
  instantaneous "reward" of the target-indicator vector.

Three measures ride on the same sweep:

* transient distributions
  ``π(tᵢ) = Σ_k wᵢ(k) · (π₀ Pᵏ)`` — the Poisson mixture with Fox–Glynn
  weights ``wᵢ`` for rate ``q·tᵢ``,
* instantaneous rewards
  ``Σ_k wᵢ(k) · (π₀ Pᵏ)·ρ``,
* cumulative rewards
  ``(1/q) Σ_k P[N_{q tᵢ} > k] · (π₀ Pᵏ)·ρ``.

The weights of a whole grid come as one
:class:`~repro.ctmc.foxglynn.PoissonTable`, a sparse row per time point
holding only that point's Fox–Glynn window.  The sweep processes the ``k``
axis in blocks; distributions meet the table in one sparse product per
block, and the reward sequences of the whole sweep in one product after it,
so neither a time point nor a ``k`` costs Python work on the hot path.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np
from scipy import sparse

from repro.ctmc.ctmc import CTMC, CTMCError
from repro.ctmc.engines import Engine, SparseEngine, sweep_engine

#: Default truncation error for the Poisson mixture.
DEFAULT_EPSILON = 1e-10

#: Number of ``π₀·Pᵏ`` vectors buffered per weight-application step.
DEFAULT_BLOCK_SIZE = 64

#: Below this many elements per power vector (``num_states × columns``) the
#: reward fold is buffered and contracted once per block: on quotient-sized
#: chains the per-step GEMM *dispatch* overhead dwarfs its flops.  Above it
#: the extra buffer copy costs more memory bandwidth than the saved calls.
BLOCK_FOLD_ELEMENT_LIMIT = 4096


@dataclass
class UniformizationStats:
    """Counters describing the work performed by the engine.

    Attributes
    ----------
    matvecs:
        Number of sparse matrix–vector products performed, counted per
        *column*: one application of the operator to a ``(num_states, B)``
        block counts as ``B`` matvecs (the legacy per-curve unit).
    applies:
        Number of sparse operator applications (each mat–vec or mat–mat
        product counts once, regardless of how many columns it carries).
        The gap between ``matvecs`` and ``applies`` is exactly what
        multi-initial batching amortises.
    sparse_flops:
        Estimated scalar multiply–adds spent inside sparse products:
        ``nnz(operator) × columns`` per application.  This is the unit the
        batched-sweep benchmarks gate on, because it also reflects lumping
        (a quotient operator has far fewer non-zeros).
    sweeps:
        Number of vector-power sweeps (one per engine invocation with a
        non-trivial grid).
    equivalent_nnz:
        Equivalent non-zeros traversed by operator applications:
        ``Σ applies × nnz(source CSR operator)``.  Dense GEMMs report the
        *source* CSR non-zero count (see
        :class:`repro.ctmc.engines.Engine`), so this unit — like
        ``sparse_flops`` — stays comparable across backends instead of
        silently bypassing the perf-bench gates.
    sweep_seconds:
        Wall-clock seconds spent inside the vector-power sweeps.
    """

    matvecs: int = 0
    applies: int = 0
    sparse_flops: int = 0
    sweeps: int = 0
    equivalent_nnz: int = 0
    sweep_seconds: float = 0.0

    def reset(self) -> None:
        self.matvecs = 0
        self.applies = 0
        self.sparse_flops = 0
        self.sweeps = 0
        self.equivalent_nnz = 0
        self.sweep_seconds = 0.0

    def add(self, other: "UniformizationStats") -> None:
        """Accumulate another counter object into this one."""
        self.matvecs += other.matvecs
        self.applies += other.applies
        self.sparse_flops += other.sparse_flops
        self.sweeps += other.sweeps
        self.equivalent_nnz += other.equivalent_nnz
        self.sweep_seconds += other.sweep_seconds


#: Process-wide counters, updated by every sweep.  Benchmarks read deltas of
#: this object to report *measured* matvec counts without plumbing a stats
#: object through the measure layers.
ENGINE_STATS = UniformizationStats()

#: Counter updates happen once per sweep, so serialising them is free; the
#: lock keeps the counters exact when the scenario service runs independent
#: execution groups on worker threads.
_STATS_LOCK = threading.Lock()

@dataclass(frozen=True)
class BlockGridResult:
    """Result of :func:`evaluate_grid_block` — always carries the batch axes.

    Attributes
    ----------
    times:
        The requested time grid (original order, duplicates preserved).
    distributions:
        ``(num_initials, len(times), num_states)`` or ``None``.
    instantaneous:
        ``(num_initials, len(times), num_rewards)`` or ``None``.
    cumulative:
        ``(num_initials, len(times), num_rewards)`` or ``None``.
    matvecs:
        Per-column sparse matvecs performed (``applies × num_initials``).
    applies:
        Sparse operator applications performed (one per vector power).
    """

    times: np.ndarray
    distributions: np.ndarray | None
    instantaneous: np.ndarray | None
    cumulative: np.ndarray | None
    matvecs: int
    applies: int


def poisson_mixture_sweep(
    operator: sparse.spmatrix,
    start: np.ndarray,
    weights: sparse.csr_matrix,
    rewards: np.ndarray | None = None,
    collect_mixtures: bool = True,
    stats: UniformizationStats | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    engine: Engine | None = None,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Walk ``v_{k+1} = operator @ v_k`` once and accumulate Poisson mixtures.

    This is the engine core, shared by forward analysis (``operator = Pᵀ``,
    ``start = π₀``) and backward analysis (``operator = P``, ``start`` a
    value vector).  ``weights`` is a table of Poisson mixtures, one sparse
    row each (a :class:`repro.ctmc.foxglynn.PoissonTable` matrix): the
    vector powers are generated exactly once, up to its last column, and
    each block of buffered powers meets every row in one sparse product.

    ``start`` may be a single vector of shape ``(dimension,)`` or a block of
    ``B`` vectors with shape ``(B, dimension)``; a block is propagated with
    one sparse mat–mat product per step, sharing the operator traversal
    across all columns.  ``rewards`` may likewise be a single vector
    ``(dimension,)`` or a matrix ``(dimension, m)`` of ``m`` reward columns.

    ``engine`` is the numeric backend for the walk (see
    :mod:`repro.ctmc.engines`); when ``None``, ``operator`` is walked as
    CSR (a :class:`~repro.ctmc.engines.SparseEngine`).  When an engine is
    given, ``operator`` may be ``None``.

    Returns
    -------
    (mixtures, reward_sequence):
        ``mixtures[i] = Σ_k weights[i, k] · v_k``; shape
        ``(rows, dimension)`` for a vector start and
        ``(rows, B, dimension)`` for a block start (``None`` unless
        ``collect_mixtures``).  ``reward_sequence[k] = v_k @ rewards`` for
        ``k = 0 .. last column``; the trailing axes match the inputs — scalar
        per ``k`` for vector start and vector rewards, ``(m,)`` / ``(B,)`` /
        ``(B, m)`` when either is batched (``None`` unless ``rewards`` is
        given).
    """
    start_array = np.asarray(start, dtype=float)
    single_start = start_array.ndim == 1
    if start_array.ndim not in (1, 2):
        raise CTMCError("start must be a vector or a (B, num_states) block")
    block_rows = start_array[None, :] if single_start else start_array
    num_columns, dimension = block_rows.shape

    single_reward = False
    reward_matrix: np.ndarray | None = None
    if rewards is not None:
        reward_matrix = np.asarray(rewards, dtype=float)
        single_reward = reward_matrix.ndim == 1
        if single_reward:
            reward_matrix = reward_matrix[:, None]
        if reward_matrix.shape[0] != dimension:
            raise CTMCError("reward matrix does not match the state dimension")
    num_rewards = 0 if reward_matrix is None else reward_matrix.shape[1]

    def _squeeze_mixtures(mix: np.ndarray) -> np.ndarray:
        return mix[:, 0, :] if single_start else mix

    def _squeeze_rewards(seq: np.ndarray) -> np.ndarray:
        if single_start and single_reward:
            return seq[:, 0, 0]
        if single_start:
            return seq[:, 0, :]
        if single_reward:
            return seq[:, :, 0]
        return seq

    num_rows, right_max = weights.shape[0], weights.shape[1] - 1
    # Accumulators are kept as (rows, dimension, columns) so the sweep's
    # (dimension, columns) layout is added without transposes on the hot path.
    mixtures_acc = (
        np.zeros((num_rows, dimension, num_columns)) if collect_mixtures else None
    )
    # Column-major copy of the table: a block of powers meets a column slice.
    by_step = weights.tocsc() if collect_mixtures else None
    reward_sequence_acc = (
        np.empty((right_max + 1, num_columns, num_rewards))
        if reward_matrix is not None
        else None
    )

    if engine is None:
        if operator is None:
            raise CTMCError("poisson_mixture_sweep needs an operator or an engine")
        engine = SparseEngine(operator)
    equivalent_nnz = engine.equivalent_nnz

    started = time.perf_counter()
    performed = 0
    # (dimension, columns) private walk buffer.  Must be a *copy*: the dense
    # backend writes operator applications into the ping-pong pair, and a
    # (1, n) transpose is already C-contiguous, so ascontiguousarray would
    # alias the caller's block and the walk would clobber it.
    vectors = np.array(block_rows.T, order="C")
    scratch = engine.new_scratch(vectors)  # ping-pong partner (dense backends)
    # Reward folding strategy: small power vectors buffer the whole block and
    # contract it in one call (dispatch-overhead regime); large ones keep the
    # per-step fold so no (block, dimension, columns) copy is ever made.
    block_fold_rewards = reward_matrix is not None and (
        collect_mixtures or dimension * num_columns <= BLOCK_FOLD_ELEMENT_LIMIT
    )
    step_fold_rewards = reward_matrix is not None and not block_fold_rewards
    need_buffer = collect_mixtures or block_fold_rewards
    for block_start in range(0, right_max + 1, block_size):
        block_stop = min(block_start + block_size, right_max + 1)
        if not need_buffer:
            # Per-step walk: each power is folded and dropped, never copied.
            for k in range(block_start, block_stop):
                if step_fold_rewards:
                    reward_sequence_acc[k] = vectors.T @ reward_matrix
                if k < right_max:
                    advanced = engine.apply_operator(vectors, out=scratch)
                    if advanced is scratch and scratch is not None:
                        scratch = vectors
                    vectors = advanced
                    performed += 1
            continue
        # Whole-block walk through the engine primitive: backends that can
        # stream powers straight into the buffer (dense GEMM) skip every
        # per-step copy and dispatch of the generic loop.
        steps = block_stop - block_start
        buffered = np.empty((steps, dimension, num_columns))
        advance_final = block_stop - 1 < right_max
        vectors, scratch = engine.power_block(vectors, buffered, scratch, advance_final)
        performed += steps - 1 + (1 if advance_final else 0)
        if block_fold_rewards:
            # One (L·B, dimension) × (dimension, m) GEMM per block replaces
            # L tiny per-step products; the contraction order per entry is
            # unchanged, so the numerics match the per-step fold.
            reward_sequence_acc[block_start:block_stop] = np.tensordot(
                buffered, reward_matrix, axes=(1, 0)
            )
        if collect_mixtures:
            mixtures_acc += (
                by_step[:, block_start:block_stop] @ buffered.reshape(steps, -1)
            ).reshape(mixtures_acc.shape)

    elapsed = time.perf_counter() - started
    with _STATS_LOCK:
        for counters in (ENGINE_STATS, stats):
            if counters is not None:
                counters.matvecs += performed * num_columns
                counters.applies += performed
                counters.sparse_flops += performed * equivalent_nnz * num_columns
                counters.sweeps += 1
                counters.equivalent_nnz += performed * equivalent_nnz
                counters.sweep_seconds += elapsed

    mixtures = (
        _squeeze_mixtures(np.swapaxes(mixtures_acc, 1, 2)) if collect_mixtures else None
    )
    reward_sequence = (
        _squeeze_rewards(reward_sequence_acc) if reward_sequence_acc is not None else None
    )
    return mixtures, reward_sequence


def evaluate_grid_block(
    chain: CTMC,
    times: Sequence[float] | np.ndarray,
    initial_block: np.ndarray,
    rewards_matrix: np.ndarray | None = None,
    distributions: bool = False,
    instantaneous: bool = False,
    cumulative: bool = False,
    epsilon: float = DEFAULT_EPSILON,
    stats: UniformizationStats | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    *,
    artifacts: Any,
) -> BlockGridResult:
    """Evaluate a whole (initials × times × rewards) block in one sweep.

    This is the batch core of the analysis session executor:
    ``initial_block`` has shape ``(num_initials, num_states)`` and
    ``rewards_matrix`` shape ``(num_states, num_rewards)``; every
    combination of initial distribution, grid point and reward column is
    folded in during one shared vector-power sweep.  The Fox–Glynn weights
    of the grid's distinct positive time points are one table (its tails
    table for cumulative rewards), computed once per (rate, grid, epsilon);
    instantaneous and cumulative rewards are each one product of a table
    with the sweep's reward sequence.

    The sweep runs on the engine :func:`repro.ctmc.engines.sweep_engine`
    builds for the forward operator.  ``artifacts`` is the
    :class:`repro.ctmc.artifacts.ArtifactCache` (duck-typed) that serves
    the forward operator, the Fox–Glynn tables and any densified operator
    across calls.

    The grid may be unsorted and contain duplicates and ``t = 0``.
    """
    times_array = np.asarray(times, dtype=float)
    if times_array.ndim != 1:
        raise CTMCError("time grid must be one-dimensional")
    if not np.all(np.isfinite(times_array)):
        raise CTMCError("time points must be finite")
    if np.any(times_array < 0):
        raise CTMCError("time points must be non-negative")

    initials = np.asarray(initial_block, dtype=float)
    if initials.ndim != 2 or initials.shape[1] != chain.num_states:
        raise CTMCError("initial block must have shape (num_initials, num_states)")
    num_initials = initials.shape[0]

    need_rewards = instantaneous or cumulative
    rewards = None
    num_rewards = 0
    if need_rewards:
        if rewards_matrix is None:
            raise CTMCError("instantaneous/cumulative outputs need a reward vector")
        rewards = np.asarray(rewards_matrix, dtype=float)
        if rewards.ndim == 1:
            rewards = rewards[:, None]
        if rewards.ndim != 2 or rewards.shape[0] != chain.num_states:
            raise CTMCError("reward vector has the wrong length")
        num_rewards = rewards.shape[1]

    num_times = times_array.shape[0]
    num_states = chain.num_states
    dist_out = (
        np.zeros((num_initials, num_times, num_states)) if distributions else None
    )
    inst_out = (
        np.zeros((num_initials, num_times, num_rewards)) if instantaneous else None
    )
    cum_out = np.zeros((num_initials, num_times, num_rewards)) if cumulative else None
    if num_times == 0:
        return BlockGridResult(times_array.copy(), dist_out, inst_out, cum_out, 0, 0)

    initial_rates = initials @ rewards if need_rewards else None  # (B, m)
    if chain.max_exit_rate == 0.0:
        # No transitions at all: the chain sits in the initial distribution.
        if distributions:
            dist_out[:] = initials[:, None, :]
        if instantaneous:
            inst_out[:] = initial_rates[:, None, :]
        if cumulative:
            cum_out[:] = times_array[None, :, None] * initial_rates[:, None, :]
        return BlockGridResult(times_array.copy(), dist_out, inst_out, cum_out, 0, 0)

    unique_times, inverse = np.unique(times_array, return_inverse=True)
    positive = unique_times > 0.0
    horizons = unique_times[positive]
    local = UniformizationStats()
    num_unique = unique_times.shape[0]
    unique_dist = (
        np.zeros((num_unique, num_initials, num_states)) if distributions else None
    )
    unique_inst = (
        np.zeros((num_unique, num_initials, num_rewards)) if instantaneous else None
    )
    unique_cum = (
        np.zeros((num_unique, num_initials, num_rewards)) if cumulative else None
    )
    if horizons.size:
        engine, q = sweep_engine(chain, artifacts)
        table = tails = None
        if distributions or instantaneous:
            table = artifacts.poisson_table(q, horizons, epsilon)
        if cumulative:
            tails = artifacts.poisson_table(q, horizons, epsilon, tails=True)
        mixtures, reward_sequence = poisson_mixture_sweep(
            None,
            initials,
            (table if table is not None else tails).matrix,
            rewards=rewards if need_rewards else None,
            collect_mixtures=distributions,
            stats=local,
            block_size=block_size,
            engine=engine,
        )
        if distributions:
            unique_dist[positive] = mixtures
        if instantaneous:
            unique_inst[positive] = table.fold(reward_sequence)
        if cumulative:
            unique_cum[positive] = tails.fold(reward_sequence) / q
    if stats is not None:
        stats.add(local)

    # t = 0: the initial distribution itself; cumulative reward stays 0
    if distributions:
        unique_dist[~positive] = initials
    if instantaneous:
        unique_inst[~positive] = initial_rates

    if distributions:
        dist_out[:] = np.swapaxes(unique_dist[inverse], 0, 1)
    if instantaneous:
        inst_out[:] = np.swapaxes(unique_inst[inverse], 0, 1)
    if cumulative:
        cum_out[:] = np.swapaxes(unique_cum[inverse], 0, 1)
    return BlockGridResult(
        times_array.copy(), dist_out, inst_out, cum_out, local.matvecs, local.applies
    )
