"""The numeric backends of the uniformization walk and the restricted solves.

Every measure in the paper's pipeline bottoms out in two inner loops — the
vector-power walk ``v ← Pᵀ·v`` of :mod:`repro.ctmc.uniformization` and the
restricted linear solves of :mod:`repro.ctmc.linsolve` /
:mod:`repro.ctmc.steady_state`.  Each has two backends:

``SparseEngine`` / ``SparseFactorization``
    scipy CSR products (``operator @ block``) and ``splu``.

``DenseEngine`` / ``DenseFactorization``
    The uniformized operator densified **once** (``toarray()``, cached in
    the :class:`repro.service.cache.ArtifactCache` under the byte-weighted
    ``dense_operator`` kind when a cache is given) and walked as BLAS GEMMs
    on preallocated buffers; small restricted systems take a dense LAPACK
    LU.  On the Fig. 8 Line 2 lumping quotients (≈80 states) the GEMM walk
    is several times faster than CSR dispatch.

The input alone picks the backend, through two rules that live here and
nowhere else:

* :func:`sweep_backend` — from the operator's order and non-zeros, applied
  by :func:`sweep_engine` wherever a sweep builds its engine;
* :func:`factorization_backend` — from the system order, applied by
  :func:`factorize` wherever :class:`repro.ctmc.linsolve.SolverEngine`
  factorizes.

No caller chooses a backend.  Every sweep and solve runs in float64.

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
    "DenseEngine",
    "DenseFactorization",
    "Engine",
    "SparseEngine",
    "SparseFactorization",
    "blas_thread_budget",
    "default_worker_count",
    "factorization_backend",
    "factorize",
    "pin_blas_threads",
    "sweep_backend",
    "sweep_engine",
]

#: Up to this many states the dense GEMM walk wins regardless of density
#: (measured 2–6x over CSR dispatch on CI-class hardware).
DENSE_STATE_LIMIT = 256

#: Up to this many states the dense walk still wins *if* the operator is
#: dense enough (measured ~4x at density 0.3, break-even near 0.1).
DENSE_RELAXED_LIMIT = 768

#: Density threshold (nnz / n²) for the relaxed size band.
DENSE_DENSITY_THRESHOLD = 0.15

#: Restricted linear systems up to this order use the dense LAPACK LU
#: instead of ``splu``.
DENSE_SOLVE_LIMIT = 128

#: Environment knobs honoured by the common BLAS implementations.
BLAS_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


# ---------------------------------------------------------------------------
# factorizations (used by the long-run SolverEngine)
# ---------------------------------------------------------------------------
class SparseFactorization:
    """An LU factorization of a sparse system via ``splu``."""

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

    Up to :data:`DENSE_SOLVE_LIMIT` states, ``lu_factor``/``lu_solve`` beat
    ``splu``'s per-call overhead; the ``solve`` signature matches
    :class:`SparseFactorization` (deviation vs. ``splu`` is at rounding
    level, ~1e-14 on the case-study systems).
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


def factorization_backend(order: int) -> str:
    """The factorization rule: ``"dense"`` (LAPACK LU) for a system of order
    at most :data:`DENSE_SOLVE_LIMIT`, ``"sparse"`` (``splu``) beyond."""
    return "dense" if order <= DENSE_SOLVE_LIMIT else "sparse"


def factorize(matrix) -> SparseFactorization | DenseFactorization:
    """Factorize a square system with the backend :func:`factorization_backend` picks."""
    if factorization_backend(matrix.shape[0]) == "dense":
        return DenseFactorization(matrix)
    return SparseFactorization(matrix)


# ---------------------------------------------------------------------------
# the sweep engines
# ---------------------------------------------------------------------------
class Engine:
    """One sweep backend bound to one operator.

    Subclasses provide the power-walk step :meth:`apply_operator` plus the
    accounting that keeps op counts backend-invariant:
    :attr:`equivalent_nnz` is the number of equivalent sparse multiply-adds
    one operator application performs *per column*, always reported as the
    **source CSR** non-zero count so ``sparse_flops`` gates keep meaning the
    same thing whether the step ran as a CSR matvec or a dense GEMM.
    """

    #: backend identifier ("sparse" / "dense")
    name: str = "abstract"

    def __init__(self, equivalent_nnz: int = 0) -> None:
        self.equivalent_nnz = int(equivalent_nnz)

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


class SparseEngine(Engine):
    """The CSR backend — scipy dispatch per operator application."""

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


class DenseEngine(Engine):
    """BLAS GEMM walk over a one-time densified operator.

    ``dense`` is the densified operator; ``equivalent_nnz`` is the **source
    CSR** non-zero count so op accounting stays comparable with the sparse
    backend.
    """

    name = "dense"

    def __init__(self, dense: np.ndarray, equivalent_nnz: int) -> None:
        super().__init__(equivalent_nnz)
        self._dense = np.ascontiguousarray(dense, dtype=float)

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


def sweep_backend(num_states: int, nnz: int) -> str:
    """The sweep rule: ``"dense"`` or ``"sparse"`` for an operator of this
    order and non-zero count.

    Calibrated by timing the uniformization walk across synthetic operators
    on CI-class hardware: dense wins outright up to
    :data:`DENSE_STATE_LIMIT` states, keeps winning up to
    :data:`DENSE_RELAXED_LIMIT` states when the operator density is at
    least :data:`DENSE_DENSITY_THRESHOLD`, and loses badly beyond (the full
    2560-state Line 2 chain is ~70x faster sparse).  A densified operator
    therefore never exceeds 768² float64 entries (4.5 MiB).
    """
    if num_states <= DENSE_STATE_LIMIT:
        return "dense"
    density = nnz / (num_states * num_states)
    if num_states <= DENSE_RELAXED_LIMIT and density >= DENSE_DENSITY_THRESHOLD:
        return "dense"
    return "sparse"


def sweep_engine(
    chain: CTMC,
    operator: sparse.csr_matrix,
    rate: float,
    artifacts: Any = None,
    *,
    backward: bool = False,
) -> Engine:
    """The engine :func:`sweep_backend` picks for one sweep of ``operator``.

    ``operator`` is the uniformized matrix of ``chain`` at ``rate``: the
    forward ``Pᵀ``, or with ``backward=True`` the non-transposed ``P`` of a
    backward value sweep.  With an
    :class:`repro.service.cache.ArtifactCache` given, a densified operator
    is cached under the ``dense_operator`` kind, where ``backward`` keeps
    ``P`` and ``Pᵀ`` of one (fingerprint, rate) from shadowing each other.
    """
    if sweep_backend(operator.shape[0], operator.nnz) == "sparse":
        return SparseEngine(operator)
    if artifacts is None:
        dense = operator.toarray()
    else:
        dense = artifacts.dense_operator(
            chain, float(rate), operator.toarray, backward=backward
        )
    return DenseEngine(dense, operator.nnz)


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
