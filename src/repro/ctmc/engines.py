"""Pluggable numeric engines for the uniformization and linear-solve kernels.

Every measure in the paper's pipeline bottoms out in two inner loops — the
vector-power walk ``v ← Pᵀ·v`` of :mod:`repro.ctmc.uniformization` and the
restricted linear solves of :mod:`repro.ctmc.linsolve` /
:mod:`repro.ctmc.steady_state`.  Historically both were hard-wired to
generic scipy CSR dispatch, which pays Python-level overhead per step even
on chains with a few dozen states (the lumping quotients of the case-study
lines).  This module puts those loops behind a small :class:`Engine`
abstraction with two interchangeable backends:

``SparseEngine``
    The legacy CSR path, extracted verbatim: ``operator @ block`` and
    ``splu`` factorizations.  Bit-for-bit identical to the pre-engine
    numerics.

``DenseEngine``
    For chains below a size/density threshold the uniformized operator is
    densified **once** (``toarray()``, cached in the
    :class:`repro.service.cache.ArtifactCache` under the byte-weighted
    ``dense_operator`` kind) and the power walk runs as BLAS GEMMs on a
    preallocated ping-pong buffer pair.  Small restricted linear systems
    use a dense LAPACK LU (:class:`DenseFactorization`) instead of
    ``splu``.  Measured on the Fig. 8 Line 2 lumping quotient (79 states)
    the GEMM walk is several times faster than CSR dispatch.

Backends are selected per chain fingerprint by :class:`EngineSelector`;
the analysis planner consults it when it resolves ``engine="auto"`` and
the artifact cache persists both the decision (kind ``engine``) and the
densified operator (kind ``dense_operator``) alongside the CSR operators.
Every sweep and solve runs in float64.

**Oversubscription guard.**  Dense GEMMs tempt BLAS into spawning its own
thread pool under every worker thread of the scenario service.
:func:`blas_thread_budget` / :func:`pin_blas_threads` compute and pin a
per-shard BLAS thread budget via the usual environment knobs; the sharded
service applies them around worker spawn, and
:func:`default_worker_count` bounds the in-process executor pool.
"""

from __future__ import annotations

import os
from typing import Any

import numpy as np
from scipy import linalg as dense_linalg
from scipy import sparse
from scipy.sparse import linalg as sparse_linalg

from repro.ctmc.ctmc import CTMC, CTMCError

__all__ = [
    "DENSE_DENSITY_THRESHOLD",
    "DENSE_RELAXED_LIMIT",
    "DENSE_SOLVE_LIMIT",
    "DENSE_STATE_LIMIT",
    "ENGINE_MODES",
    "DenseEngine",
    "DenseFactorization",
    "Engine",
    "EngineSelector",
    "SparseEngine",
    "SparseFactorization",
    "blas_thread_budget",
    "default_worker_count",
    "normalise_engine_mode",
    "pin_blas_threads",
]

#: Valid values for every ``engine=`` knob in the stack.
ENGINE_MODES = ("auto", "sparse", "dense")

#: Below this many states the dense GEMM walk wins regardless of density
#: (measured 2–6x over CSR dispatch on CI-class hardware).
DENSE_STATE_LIMIT = 256

#: Up to this many states the dense walk still wins *if* the operator is
#: dense enough (measured ~4x at density 0.3, break-even near 0.1).
DENSE_RELAXED_LIMIT = 768

#: Density threshold (nnz / n²) for the relaxed size band.
DENSE_DENSITY_THRESHOLD = 0.15

#: Never densify an operator beyond this many bytes, whatever the
#: heuristic says — the cached array would crowd out everything else.
DENSE_MEMORY_LIMIT_BYTES = 64 << 20

#: Restricted linear systems at or below this order use the dense LAPACK
#: LU instead of ``splu`` when the solver runs in ``auto`` mode.
DENSE_SOLVE_LIMIT = 128

#: Environment knobs honoured by the common BLAS implementations.
BLAS_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


# ---------------------------------------------------------------------------
# knob normalisation
# ---------------------------------------------------------------------------
def normalise_engine_mode(mode: Any) -> str:
    """Validate an ``engine=`` knob, returning its canonical string form."""
    name = str(mode).lower()
    if name not in ENGINE_MODES:
        raise CTMCError(
            f"unknown engine mode {mode!r}; expected one of {ENGINE_MODES}"
        )
    return name


# ---------------------------------------------------------------------------
# factorizations (shared by the engines and the long-run SolverEngine)
# ---------------------------------------------------------------------------
class SparseFactorization:
    """An LU factorization of a sparse system via ``splu`` (the legacy path)."""

    __slots__ = ("_lu", "shape", "nnz")

    def __init__(self, matrix) -> None:
        csc = sparse.csc_matrix(matrix)
        if csc.shape[0] != csc.shape[1]:
            raise CTMCError("only square systems can be factorized")
        self.shape = csc.shape
        self.nnz = int(csc.nnz)
        self._lu = sparse_linalg.splu(csc)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._lu.solve(np.asarray(rhs, dtype=float))


class DenseFactorization:
    """A dense LAPACK LU for small restricted systems.

    Below :data:`DENSE_SOLVE_LIMIT` states, ``lu_factor``/``lu_solve`` beat
    ``splu``'s per-call overhead; the ``solve`` signature matches
    :class:`SparseFactorization` so :class:`repro.ctmc.linsolve.SolverEngine`
    can swap them freely (deviation vs. ``splu`` is at rounding level,
    ~1e-14 on the case-study systems).
    """

    __slots__ = ("_lu_piv", "shape", "nnz")

    def __init__(self, matrix) -> None:
        if sparse.issparse(matrix):
            self.nnz = int(matrix.nnz)
            dense = matrix.toarray()
        else:
            dense = np.asarray(matrix, dtype=float)
            self.nnz = int(np.count_nonzero(dense))
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise CTMCError("only square systems can be factorized")
        self.shape = dense.shape
        self._lu_piv = dense_linalg.lu_factor(dense)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return dense_linalg.lu_solve(self._lu_piv, np.asarray(rhs, dtype=float))


# ---------------------------------------------------------------------------
# the engines
# ---------------------------------------------------------------------------
class Engine:
    """One numeric backend bound to one operator.

    Subclasses provide the two kernels the stack needs — the power-walk
    step :meth:`apply_operator` and the restricted-system
    :meth:`factorize`/:meth:`solve` pair — plus the accounting hooks that
    keep op counts backend-invariant: :attr:`equivalent_nnz` is the number
    of equivalent sparse multiply-adds one operator application performs
    *per column*, always reported as the **source CSR** non-zero count so
    ``sparse_flops`` gates keep meaning the same thing whether the step ran
    as a CSR matvec or a dense GEMM.
    """

    #: backend identifier ("sparse" / "dense")
    name: str = "abstract"

    def __init__(self, equivalent_nnz: int = 0) -> None:
        self.equivalent_nnz = int(equivalent_nnz)

    # -- power walk -----------------------------------------------------
    def apply_operator(
        self, block: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """One ``operator @ block`` step; may write into ``out`` and return it."""
        raise NotImplementedError

    def new_scratch(self, block: np.ndarray) -> np.ndarray | None:
        """A ping-pong partner buffer for :meth:`apply_operator`, or ``None``
        when the backend allocates its own result (the CSR path)."""
        return None

    def power_block(
        self,
        vectors: np.ndarray,
        out_block: np.ndarray,
        scratch: np.ndarray | None,
        advance_final: bool,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Record one block of successive operator powers of ``vectors``.

        ``out_block[i]`` receives ``operatorⁱ @ vectors`` for each of the
        block's ``len(out_block)`` slots; with ``advance_final`` the walk
        takes one extra step so the returned ``vectors`` already holds the
        first power of the *next* block.  Returns the updated ``(vectors,
        scratch)`` ping-pong pair.  Backends whose kernels can write into
        arbitrary buffers override this to stream powers straight into the
        block slots, skipping the per-step copy this generic walk performs.
        """
        steps = out_block.shape[0]
        for offset in range(steps):
            out_block[offset] = vectors
            if offset < steps - 1 or advance_final:
                advanced = self.apply_operator(vectors, out=scratch)
                if advanced is scratch and scratch is not None:
                    scratch = vectors
                vectors = advanced
        return vectors, scratch

    # -- restricted solves ----------------------------------------------
    def factorize(self, matrix) -> SparseFactorization | DenseFactorization:
        """Factorize a (sub)system for repeated :meth:`solve` calls."""
        raise NotImplementedError

    def solve(self, factorization, rhs: np.ndarray) -> np.ndarray:
        return factorization.solve(rhs)


class SparseEngine(Engine):
    """The legacy CSR backend — scipy dispatch, ``splu`` factorizations."""

    name = "sparse"

    def __init__(self, operator) -> None:
        nnz = (
            int(operator.nnz)
            if sparse.issparse(operator)
            else int(np.count_nonzero(operator))
        )
        super().__init__(nnz)
        self._operator = operator

    def apply_operator(
        self, block: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        return self._operator @ block

    def factorize(self, matrix) -> SparseFactorization:
        return SparseFactorization(matrix)


class DenseEngine(Engine):
    """BLAS GEMM walk over a one-time densified operator.

    ``dense`` is the densified forward operator; ``equivalent_nnz`` is the
    **source CSR** non-zero count so op accounting stays comparable with
    the sparse backend.
    """

    name = "dense"

    def __init__(self, dense: np.ndarray, equivalent_nnz: int) -> None:
        super().__init__(equivalent_nnz)
        self._dense = np.ascontiguousarray(dense, dtype=float)

    @classmethod
    def from_operator(cls, operator) -> "DenseEngine":
        dense = operator.toarray() if sparse.issparse(operator) else np.asarray(operator)
        nnz = (
            int(operator.nnz)
            if sparse.issparse(operator)
            else int(np.count_nonzero(dense))
        )
        return cls(dense, nnz)

    def apply_operator(
        self, block: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        if out is None:
            return self._dense @ block
        np.matmul(self._dense, block, out=out)
        return out

    def new_scratch(self, block: np.ndarray) -> np.ndarray:
        return np.empty_like(block)

    def power_block(
        self,
        vectors: np.ndarray,
        out_block: np.ndarray,
        scratch: np.ndarray | None,
        advance_final: bool,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        # GEMM each power directly into its block slot: no ping-pong, no
        # per-step store of the previous power.  ``out_block[i]`` slices of a
        # C-ordered block are themselves contiguous, so BLAS takes them as-is.
        matrix = self._dense
        previous = out_block[0]
        previous[...] = vectors
        for offset in range(1, out_block.shape[0]):
            current = out_block[offset]
            np.matmul(matrix, previous, out=current)
            previous = current
        if advance_final:
            np.matmul(matrix, previous, out=vectors)
        return vectors, scratch

    def factorize(self, matrix) -> DenseFactorization:
        return DenseFactorization(matrix)


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------
class EngineSelector:
    """Resolve ``engine="auto"`` into a concrete backend per chain.

    The heuristic was calibrated by timing the uniformization walk across
    synthetic operators on CI-class hardware: dense wins outright below
    :data:`DENSE_STATE_LIMIT` states, keeps winning up to
    :data:`DENSE_RELAXED_LIMIT` states when the operator density is at
    least :data:`DENSE_DENSITY_THRESHOLD`, and loses badly beyond (the
    full 2560-state Line 2 chain is ~70x faster sparse).

    With an :class:`repro.service.cache.ArtifactCache` attached, both the
    per-chain-fingerprint decision (kind ``engine``) and the
    densified operator (kind ``dense_operator``, byte-weighted) persist
    across sessions and flushes.
    """

    def __init__(
        self,
        artifacts: Any = None,
        *,
        dense_state_limit: int = DENSE_STATE_LIMIT,
        dense_relaxed_limit: int = DENSE_RELAXED_LIMIT,
        dense_density_threshold: float = DENSE_DENSITY_THRESHOLD,
    ) -> None:
        self.artifacts = artifacts
        self.dense_state_limit = int(dense_state_limit)
        self.dense_relaxed_limit = int(dense_relaxed_limit)
        self.dense_density_threshold = float(dense_density_threshold)

    # -- the heuristic ---------------------------------------------------
    def choose(self, num_states: int, nnz: int) -> str:
        """Backend name for an operator of the given order and fill."""
        num_states = int(num_states)
        if num_states * num_states * 8 > DENSE_MEMORY_LIMIT_BYTES:  # float64
            return "sparse"
        if num_states <= self.dense_state_limit:
            return "dense"
        density = nnz / max(1, num_states * num_states)
        if (
            num_states <= self.dense_relaxed_limit
            and density >= self.dense_density_threshold
        ):
            return "dense"
        return "sparse"

    def resolve(self, chain: CTMC | None, mode: str, nnz: int | None = None) -> str:
        """Concrete backend for ``mode``; persists ``auto`` decisions."""
        mode = normalise_engine_mode(mode)
        if mode != "auto":
            return mode
        if chain is None:
            raise CTMCError("auto engine selection needs a chain to inspect")
        estimated = (
            int(nnz)
            if nnz is not None
            # forward operator nnz: off-diagonal rates + the uniformization
            # self-loop on (almost) every diagonal entry
            else int(chain.rate_matrix.nnz) + chain.num_states
        )
        decide = lambda: self.choose(chain.num_states, estimated)
        if self.artifacts is not None:
            return self.artifacts.engine_choice(chain, decide)
        return decide()

    # -- engine construction ---------------------------------------------
    def engine_for(
        self,
        chain: CTMC | None,
        operator,
        rate: float,
        *,
        mode: str = "auto",
        backward: bool = False,
    ) -> Engine:
        """Build (or fetch from the artifact cache) the backend for one sweep.

        ``backward=True`` marks the operator as the *non-transposed*
        uniformized matrix ``P`` (the backward value sweep) rather
        than the forward ``Pᵀ``; both share a ``(fingerprint, rate)`` cache
        neighbourhood, so the flag keys the densified backward operator
        separately to keep the two from shadowing each other.
        """
        nnz = int(operator.nnz) if sparse.issparse(operator) else None
        resolved = self.resolve(chain, mode, nnz=nnz)
        if resolved == "dense":
            return self._dense_engine(chain, operator, rate, backward)
        return SparseEngine(operator)

    def _dense_engine(self, chain, operator, rate, backward=False) -> DenseEngine:
        nnz = (
            int(operator.nnz)
            if sparse.issparse(operator)
            else int(np.count_nonzero(operator))
        )
        if self.artifacts is not None and chain is not None:
            dense = self.artifacts.dense_operator(
                chain,
                float(rate),
                lambda: np.ascontiguousarray(
                    operator.toarray()
                    if sparse.issparse(operator)
                    else np.asarray(operator),
                    dtype=float,
                ),
                backward=backward,
            )
        else:
            dense = (
                operator.toarray() if sparse.issparse(operator) else np.asarray(operator)
            )
        return DenseEngine(dense, nnz)


# ---------------------------------------------------------------------------
# BLAS / thread-pool oversubscription guard
# ---------------------------------------------------------------------------
def blas_thread_budget(num_shards: int = 1) -> int:
    """BLAS threads each of ``num_shards`` processes may use without
    oversubscribing the machine."""
    return max(1, (os.cpu_count() or 1) // max(1, int(num_shards)))


def pin_blas_threads(count: int) -> dict[str, str | None]:
    """Pin the BLAS thread count via environment, returning prior values.

    Must run *before* the processes (or the numpy import) that should honour
    it — BLAS pools read these variables once at load time, which is why the
    sharded service sets them around ``process.start()`` so spawned workers
    inherit the pinned environment.
    """
    previous: dict[str, str | None] = {}
    for variable in BLAS_ENV_VARS:
        previous[variable] = os.environ.get(variable)
        os.environ[variable] = str(max(1, int(count)))
    return previous


def restore_blas_threads(previous: dict[str, str | None]) -> None:
    """Undo :func:`pin_blas_threads` in the calling process."""
    for variable, value in previous.items():
        if value is None:
            os.environ.pop(variable, None)
        else:
            os.environ[variable] = value


def default_worker_count(requested: int | None = None) -> int:
    """Bounded default for service worker pools.

    ``ThreadPoolExecutor``'s own default (``cpu+4``, up to 32) multiplies
    badly with BLAS pools once the dense backend is in play; the service
    caps at a small constant instead unless the caller asked for more.
    """
    if requested is not None:
        return max(1, int(requested))
    return min(8, (os.cpu_count() or 1) + 2)
