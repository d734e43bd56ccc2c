"""Cached sparse linear-solver engine for long-run measures.

The transient measures of the paper ride one shared uniformization path
(:mod:`repro.ctmc.uniformization`); the *long-run* measures — steady-state
probabilities (``S=?``), unbounded reachability (``P=?[phi U psi]``) and
expected reachability rewards (``R=?[F phi]``) — instead reduce to sparse
linear systems over a *subset* of the state space:

* the stationary balance equations of a BSCC,
* ``(I - P|_maybe) x = b`` over the genuinely uncertain states of a
  reachability problem on the embedded DTMC,
* ``Q|_certain v = -rho`` over the states that reach the target with
  probability one.

Factorizing such a system (``scipy``'s ``splu``) dominates its cost; the
subsequent triangular solves are cheap and accept *stacked* right-hand-side
columns.  :class:`SolverEngine` therefore caches one LU factorization per
``(chain fingerprint, system token)`` — where the token encodes the system
family and the state subset via :func:`subset_signature` — and solves
arbitrarily many RHS columns against it.  The engine keeps factorizations
(and the BSCC decompositions and stationary vectors the steady-state path
stores through the same interface) in an
:class:`repro.ctmc.artifacts.ArtifactCache`: its own private one, or one it
is handed — the session's or service's, so they persist across sessions and
service flushes and a warm portfolio repeat performs zero new
factorizations.

Since PR 10 the analysis planner lumps long-run groups before they reach
this module: the chain handed to the solvers is an ordinary-lumpability
quotient on which the group's target/safe/reward observables are
block-constant (the chain's one label-seeded quotient), so the
factorized systems — and the persisted LU artifacts — live on the (often
much smaller) quotient state space.  Nothing here changes for that: the
quotient is just another :class:`~repro.ctmc.ctmc.CTMC` with its own
fingerprint.

Work is recorded in :class:`LinearSolveStats` (factorizations built, solve
calls, RHS columns), mirroring how
:class:`repro.ctmc.uniformization.UniformizationStats` instruments the
transient engine; ``benchmarks/bench_perf_linsolve.py`` gates on these
counters.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any, ClassVar

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as sparse_linalg

from repro.ctmc.artifacts import ArtifactCache
from repro.ctmc.ctmc import CTMC, CTMCError, as_state_mask
from repro.ctmc.engines import DenseFactorization, SparseFactorization, factorize
from repro.stats import Record


def subset_signature(mask: np.ndarray) -> bytes:
    """A compact, canonical byte token of a state subset.

    Together with a chain fingerprint and a system-family prefix this keys a
    factorization in the cache: two lookups share an LU exactly when they
    restrict the same chain to the same states.  The mask is bit-packed so
    tokens stay small even for large chains.
    """
    array = np.asarray(mask)
    if array.dtype != np.bool_:
        raise CTMCError("subset signatures are taken over boolean state masks")
    return np.packbits(array).tobytes()


@dataclass
class LinearSolveStats(Record):
    """Counters describing the work performed by the solver engine.

    Attributes
    ----------
    factorizations:
        LU factorizations actually *built* (cache hits do not count — the
        warm-path benchmarks gate on this staying zero for repeats).
    solves:
        Triangular solve calls against a factorization.
    columns:
        Right-hand-side columns pushed through those solves; the gap between
        ``columns`` and ``factorizations`` is what RHS stacking amortises.
    dense_factorizations:
        How many of ``factorizations`` used the dense LAPACK LU (systems
        small enough for :func:`repro.ctmc.engines.factorization_backend`)
        instead of ``splu``; always ``<= factorizations``.
    equivalent_nnz:
        Non-zeros of the systems factorized, summed over builds.  Dense
        factorizations report the *sparse* non-zero count of the source
        system, keeping the unit backend-invariant (the linear-solve analog
        of ``UniformizationStats.equivalent_nnz``).
    factor_seconds, solve_seconds:
        Wall-clock seconds spent building factorizations / running
        triangular (or LAPACK) solves.
    """

    label: ClassVar[str] = "linsolve"

    factorizations: int = 0
    solves: int = 0
    columns: int = 0
    dense_factorizations: int = 0
    equivalent_nnz: int = 0
    factor_seconds: float = 0.0
    solve_seconds: float = 0.0


class SolverEngine:
    """Factorize once per (chain fingerprint, system token), solve many columns.

    Parameters
    ----------
    artifacts:
        The :class:`repro.ctmc.artifacts.ArtifactCache` (any object with its
        ``get_or_create(kind, key, factory)`` method works) that holds
        factorizations and whatever else callers store through
        :meth:`cached` (BSCC decompositions, stationary vectors, embedded
        matrices), keyed by content fingerprints.  Without one the engine
        makes a private cache, so repeated queries through one engine share
        factorizations while independent engines stay isolated; engines
        handed one cache share them across engines, sessions and service
        flushes.
    stats:
        Optional shared :class:`LinearSolveStats`; the analysis session and
        the scenario service aggregate several engines into one object.

    Each system is factorized by :func:`repro.ctmc.engines.factorize`: the
    dense LAPACK LU up to :data:`repro.ctmc.engines.DENSE_SOLVE_LIMIT`
    states, ``splu`` beyond.
    """

    def __init__(
        self,
        artifacts: Any | None = None,
        stats: LinearSolveStats | None = None,
    ) -> None:
        self.artifacts = artifacts if artifacts is not None else ArtifactCache()
        self.stats = stats if stats is not None else LinearSolveStats()

    # ------------------------------------------------------------------
    def cached(self, kind: str, key: tuple, factory: Callable[[], Any]) -> Any:
        """Fetch-or-build an artifact in the engine's artifact cache.

        The generic hook the long-run measures use for every reusable
        intermediate (kinds ``factorization``, ``bscc``, ``stationary``,
        ``absorption``, ``embedded``).
        """
        return self.artifacts.get_or_create(kind, key, factory)

    def build_factorization(
        self, matrix: sparse.spmatrix
    ) -> SparseFactorization | DenseFactorization:
        """Factorize ``matrix`` unconditionally (counted, never cached).

        Either backend counts once in ``stats.factorizations``, so
        factorization-count gates are backend-invariant.
        """
        started = time.perf_counter()
        factorization = factorize(matrix)
        if isinstance(factorization, DenseFactorization):
            self.stats.dense_factorizations += 1
        self.stats.factorizations += 1
        self.stats.equivalent_nnz += factorization.nnz
        self.stats.factor_seconds += time.perf_counter() - started
        return factorization

    def factorization(
        self,
        chain: CTMC,
        token: bytes,
        builder: Callable[[], sparse.spmatrix],
    ) -> SparseFactorization | DenseFactorization:
        """The cached LU of the system ``builder()`` of ``chain``.

        ``token`` must determine the system matrix given the chain — the
        callers here always derive it from a system-family prefix plus the
        :func:`subset_signature` of the restricted state set.
        """
        return self.cached(
            "factorization",
            (chain.fingerprint, token),
            lambda: self.build_factorization(builder()),
        )

    def solve(
        self, factorization: SparseFactorization | DenseFactorization, rhs: np.ndarray
    ) -> np.ndarray:
        """Solve against a factorization, counting the RHS columns."""
        rhs = np.asarray(rhs, dtype=float)
        self.stats.solves += 1
        self.stats.columns += 1 if rhs.ndim == 1 else rhs.shape[1]
        started = time.perf_counter()
        solution = factorization.solve(rhs)
        self.stats.solve_seconds += time.perf_counter() - started
        return solution


# ----------------------------------------------------------------------
# expected reachability rewards (CSRL R=?[F phi])
# ----------------------------------------------------------------------
def reachability_reward_values(
    chain: CTMC,
    target: np.ndarray,
    rewards_matrix: np.ndarray,
    engine: SolverEngine | None = None,
    tolerance: float = 1e-9,
) -> np.ndarray:
    """Per-state expected accumulated reward until first reaching ``target``.

    ``rewards_matrix`` is a ``(num_states, k)`` block of reward-rate
    columns; the result has the same shape.  All ``k`` columns share one
    cached LU factorization of the generator restricted to the states that
    reach the target with probability one — the batching the analysis
    executor exploits for stacked ``R=?[F phi]`` queries.  States that miss
    the target with positive probability have infinite expected reward;
    target states accumulate nothing.
    """
    from repro.ctmc.dtmc import unbounded_reachability

    engine = engine if engine is not None else SolverEngine()
    target_mask = as_state_mask(chain, target)
    rewards_matrix = np.asarray(rewards_matrix, dtype=float)
    if rewards_matrix.ndim != 2 or rewards_matrix.shape[0] != chain.num_states:
        raise CTMCError("rewards_matrix must be a (num_states, k) column block")

    reach = unbounded_reachability(chain, target_mask, engine=engine)
    certain = reach >= 1.0 - tolerance
    values = np.full((chain.num_states, rewards_matrix.shape[1]), np.inf)
    values[target_mask] = 0.0

    solve_mask = certain & ~target_mask
    solve_states = np.flatnonzero(solve_mask)
    if solve_states.size:
        # The restricted generator is non-singular: every solve state
        # reaches the (absorbing-for-this-purpose) target with probability
        # one, and the set is closed — a state with reach probability 1
        # cannot have a positive-rate successor with reach < 1.
        token = b"reach-reward|" + subset_signature(solve_mask)
        factorization = engine.factorization(
            chain,
            token,
            lambda: chain.generator_matrix()[np.ix_(solve_states, solve_states)],
        )
        solution = engine.solve(factorization, -rewards_matrix[solve_states])
        values[solve_states] = np.asarray(solution, dtype=float).reshape(
            solve_states.size, -1
        )
    return values


def expected_values_under(
    initial_block: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """``initial_block @ values`` with infinity-aware accumulation.

    ``values`` may contain ``inf`` entries (states that miss a reachability
    target); a plain dot product would turn ``0 * inf`` into ``nan``.  Any
    initial distribution placing positive mass on an infinite-value state
    has an infinite expectation; the finite part is accumulated normally.
    """
    initial_block = np.asarray(initial_block, dtype=float)
    values = np.asarray(values, dtype=float)
    infinite = ~np.isfinite(values)
    expected = initial_block @ np.where(infinite, 0.0, values)
    touches_infinity = (initial_block > 0.0) @ infinite.astype(float) > 0.0
    expected[touches_infinity] = np.inf
    return expected


def reachability_reward_reference(
    chain: CTMC,
    rewards: np.ndarray,
    target: np.ndarray,
    initial_distribution: np.ndarray | None = None,
) -> float:
    """Per-call reference for ``R=?[F target]`` (one fresh ``spsolve``).

    The pre-engine implementation, retained verbatim so tests and the
    ``bench_perf_linsolve`` gates can cross-check the batched/cached path
    against an independent solve.
    """
    from repro.ctmc.dtmc import unbounded_reachability

    target_mask = as_state_mask(chain, target)
    rewards = np.asarray(rewards, dtype=float)
    initial = (
        chain.initial_distribution
        if initial_distribution is None
        else np.asarray(initial_distribution, dtype=float)
    )

    reach = unbounded_reachability(chain, target_mask)
    if np.any((initial > 0) & (reach < 1.0 - 1e-9)):
        return float("inf")

    non_target = np.flatnonzero(~target_mask)
    if non_target.size == 0:
        return 0.0
    # Restrict to the states this initial distribution can actually visit
    # with finite expected reward; the complement never carries mass here.
    certain = np.flatnonzero((reach >= 1.0 - 1e-9) & ~target_mask)
    generator = chain.generator_matrix()
    sub = generator[np.ix_(certain, certain)].tocsc()
    solution = sparse_linalg.spsolve(sub, -rewards[certain])
    values = np.zeros(chain.num_states)
    values[certain] = np.asarray(solution, dtype=float)
    return float(initial @ values)
