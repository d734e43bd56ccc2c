"""Tests of the pluggable numeric-engine layer (:mod:`repro.ctmc.engines`).

Covers the backend implementations (sparse CSR, dense BLAS), the
auto-selection heuristic and its crossover, the per-fingerprint
persistence in the artifact cache, dense-LU long-run solves, and the
BLAS/thread-pool oversubscription guard — including a regression test that
a two-shard dense run keeps every worker's thread budget bounded.
"""

from __future__ import annotations

import asyncio
import os

import numpy as np
import pytest
from scipy import sparse

from repro.analysis import AnalysisSession, MeasureKind, MeasureRequest
from repro.ctmc import CTMC
from repro.ctmc.ctmc import CTMCError
from repro.ctmc.engines import (
    BLAS_ENV_VARS,
    DENSE_RELAXED_LIMIT,
    DENSE_SOLVE_LIMIT,
    DENSE_STATE_LIMIT,
    DenseEngine,
    DenseFactorization,
    EngineSelector,
    SparseEngine,
    SparseFactorization,
    blas_thread_budget,
    default_worker_count,
    normalise_engine_mode,
    pin_blas_threads,
    restore_blas_threads,
)
from repro.ctmc.uniformization import UniformizationStats, evaluate_grid_block
from repro.service.cache import DENSE_WEIGHT_UNIT_BYTES, ArtifactCache


def make_chain(seed: int = 0, num_states: int = 40, density: float = 0.25) -> CTMC:
    rng = np.random.default_rng(seed)
    rates = rng.uniform(0.1, 2.0, (num_states, num_states))
    rates *= rng.random((num_states, num_states)) < density
    np.fill_diagonal(rates, 0.0)
    initial = rng.random(num_states) + 1e-3
    return CTMC(rates, initial / initial.sum())


# ---------------------------------------------------------------------------
# mode normalisation
# ---------------------------------------------------------------------------
class TestNormalisation:
    def test_known_modes_pass_through(self):
        for mode in ("auto", "sparse", "dense"):
            assert normalise_engine_mode(mode) == mode

    def test_unknown_mode_raises(self):
        for mode in ("gpu", "numba"):
            with pytest.raises(CTMCError, match="unknown engine mode"):
                normalise_engine_mode(mode)

    def test_sweeps_take_no_dtype_knob(self):
        """Every sweep runs in float64; a ``dtype=`` argument is an error."""
        from repro.service import ScenarioService

        chain = make_chain(1)
        with pytest.raises(TypeError):
            AnalysisSession(dtype="float64")
        with pytest.raises(TypeError):
            MeasureRequest(chain=chain, times=[1.0], dtype="float64")
        with pytest.raises(TypeError):
            ScenarioService(dtype="float64")
        with pytest.raises(TypeError):
            evaluate_grid_block(
                chain, [1.0], chain.initial_distribution[None, :], dtype="float64"
            )


# ---------------------------------------------------------------------------
# backend equivalence on real sweeps
# ---------------------------------------------------------------------------
class TestBackendEquivalence:
    def _sweep(self, chain, engine=None, stats=None):
        times = np.linspace(0.1, 3.0, 6)
        rewards = np.zeros((chain.num_states, 1))
        rewards[-1, 0] = 1.0
        block = chain.initial_distribution[None, :]
        result = evaluate_grid_block(
            chain,
            times,
            block,
            rewards_matrix=rewards,
            instantaneous=True,
            engine=engine,
            stats=stats,
        )
        return result.instantaneous

    def test_sparse_lane_is_bit_exact_with_legacy(self):
        chain = make_chain(3)
        legacy = self._sweep(chain)
        via_engine = self._sweep(chain, engine="sparse")
        assert np.array_equal(legacy, via_engine)

    def test_dense_lane_matches_legacy(self):
        chain = make_chain(4)
        legacy = self._sweep(chain)
        dense = self._sweep(chain, engine="dense")
        assert np.max(np.abs(legacy - dense)) <= 1e-12

    def test_op_accounting_is_backend_invariant(self):
        chain = make_chain(6)
        flops, equivalents = [], []
        for mode in (None, "sparse", "dense"):
            stats = UniformizationStats()
            self._sweep(chain, engine=mode, stats=stats)
            flops.append(stats.sparse_flops)
            if mode is not None:
                equivalents.append(stats.equivalent_nnz)
                assert stats.sweep_seconds > 0.0
        # Dense GEMMs report the *equivalent* sparse op count, so existing
        # flop-based perf gates keep measuring algorithmic work.
        assert len(set(flops)) == 1
        assert equivalents[0] == equivalents[1] == flops[0]


# ---------------------------------------------------------------------------
# the auto-selection heuristic
# ---------------------------------------------------------------------------
class TestEngineSelector:
    def test_small_chains_go_dense(self):
        selector = EngineSelector()
        assert selector.choose(DENSE_STATE_LIMIT, 10) == "dense"

    def test_large_sparse_chains_stay_sparse(self):
        selector = EngineSelector()
        big = 4 * DENSE_RELAXED_LIMIT
        assert selector.choose(big, big * 5) == "sparse"

    def test_crossover_in_relaxed_band_depends_on_density(self):
        """Between the limits the operator fill decides the backend."""
        selector = EngineSelector()
        size = (DENSE_STATE_LIMIT + DENSE_RELAXED_LIMIT) // 2
        dense_fill = int(0.2 * size * size)
        sparse_fill = int(0.05 * size * size)
        assert selector.choose(size, dense_fill) == "dense"
        assert selector.choose(size, sparse_fill) == "sparse"

    def test_memory_guard_forces_sparse(self):
        # Raise the size limits so only the byte cap can veto.
        selector = EngineSelector(dense_state_limit=10_000)
        huge = 4000  # 4000^2 float64 = 128 MiB > the 64 MiB guard
        assert selector.choose(huge, huge * huge) == "sparse"
        assert selector.choose(2800, 2800 * 2800) == "dense"  # 60 MiB fits

    def test_forced_modes_bypass_the_heuristic(self):
        selector = EngineSelector()
        chain = make_chain(7, num_states=500, density=0.02)
        assert selector.resolve(chain, "dense") == "dense"
        assert selector.resolve(chain, "sparse") == "sparse"

    def test_auto_decision_persists_in_artifact_cache(self):
        artifacts = ArtifactCache()
        selector = EngineSelector(artifacts)
        chain = make_chain(8, num_states=30)
        first = selector.resolve(chain, "auto")
        second = selector.resolve(chain, "auto")
        assert first == second == "dense"
        counters = artifacts.stats().kinds["engine"]
        assert counters.misses == 1 and counters.hits == 1

    def test_engine_for_builds_matching_backends(self):
        chain = make_chain(9, num_states=20)
        operator = sparse.random(20, 20, density=0.3, format="csr", random_state=1)
        selector = EngineSelector()
        assert isinstance(
            selector.engine_for(chain, operator, 1.0, mode="dense"), DenseEngine
        )
        assert isinstance(
            selector.engine_for(chain, operator, 1.0, mode="sparse"), SparseEngine
        )


# ---------------------------------------------------------------------------
# factorizations and long-run solves
# ---------------------------------------------------------------------------
class TestFactorizations:
    def _system(self, size=30, seed=2):
        rng = np.random.default_rng(seed)
        matrix = sparse.eye(size, format="csc") * 2.0 + sparse.random(
            size, size, density=0.2, format="csc", random_state=seed
        )
        rhs = rng.random(size)
        return matrix.tocsc(), rhs

    def test_dense_and_sparse_factorizations_agree(self):
        matrix, rhs = self._system()
        dense = DenseFactorization(matrix).solve(rhs)
        via_sparse = SparseFactorization(matrix).solve(rhs)
        assert np.max(np.abs(dense - via_sparse)) <= 1e-10
        assert DenseFactorization(matrix).nnz == matrix.nnz

    @pytest.mark.parametrize("mode", ["auto", "sparse", "dense"])
    def test_longrun_measures_agree_across_solver_modes(self, mode):
        chain = make_chain(10, num_states=35)
        session = AnalysisSession(engine=mode)
        target = np.zeros(chain.num_states, dtype=bool)
        target[-3:] = True
        rewards = np.linspace(0.0, 2.0, chain.num_states)
        session.request(chain, (), kind=MeasureKind.STEADY_STATE, target=target)
        session.request(
            chain,
            (),
            kind=MeasureKind.REACHABILITY_REWARD,
            target=target,
            rewards=rewards,
        )
        values = [result.squeezed[0] for result in session.execute()]
        reference = AnalysisSession()
        reference.request(chain, (), kind=MeasureKind.STEADY_STATE, target=target)
        reference.request(
            chain,
            (),
            kind=MeasureKind.REACHABILITY_REWARD,
            target=target,
            rewards=rewards,
        )
        expected = [result.squeezed[0] for result in reference.execute()]
        assert np.allclose(values, expected, rtol=0.0, atol=1e-10)
        # A 35-state system is below DENSE_SOLVE_LIMIT, so auto and dense
        # both take the dense LU path and say so in the stats.
        assert chain.num_states <= DENSE_SOLVE_LIMIT
        if mode in ("auto", "dense"):
            assert session.stats.dense_factorizations >= 1
        else:
            assert session.stats.dense_factorizations == 0
        assert session.stats.factor_seconds >= 0.0


# ---------------------------------------------------------------------------
# artifact-cache integration (dense operators are byte-weighted)
# ---------------------------------------------------------------------------
class TestDenseOperatorCaching:
    def test_dense_operator_weight_is_byte_aware(self):
        cache = ArtifactCache(max_entries=64)
        chain = make_chain(13, num_states=200, density=0.1)
        dense = np.zeros((200, 200))
        cache.dense_operator(chain, 1.0, lambda: dense)
        expected_weight = -(-dense.nbytes // DENSE_WEIGHT_UNIT_BYTES)
        assert expected_weight > 1
        assert cache.total_weight == expected_weight

    def test_heavy_dense_operators_evict_earlier_entries(self):
        cache = ArtifactCache(max_entries=3)
        chains = [make_chain(seed, num_states=120) for seed in range(3)]
        for index, chain in enumerate(chains):
            cache.get_or_create("window", (index,), lambda: index)
            cache.dense_operator(chain, 1.0, lambda: np.zeros((120, 120)))
        # Each dense operator weighs ~113KB/256KB -> 1, but the budget of 3
        # cannot hold all six entries: older ones must have been evicted
        # while the newest survives.
        assert cache.total_weight <= 3
        counters = cache.stats().kinds["dense_operator"]
        assert counters.misses == 3

    def test_warm_sweep_reuses_the_cached_dense_operator(self):
        artifacts = ArtifactCache()
        chain = make_chain(14, num_states=30)
        times = np.linspace(0.1, 2.0, 4)
        for _ in range(2):
            session = AnalysisSession(artifacts=artifacts, engine="dense")
            session.request(
                chain, times, kind=MeasureKind.REACHABILITY, target=[0]
            )
            session.execute()
        counters = artifacts.stats().kinds["dense_operator"]
        assert counters.misses == 1 and counters.hits >= 1


# ---------------------------------------------------------------------------
# BLAS / worker-pool oversubscription guard
# ---------------------------------------------------------------------------
class TestOversubscriptionGuard:
    def test_blas_thread_budget_partitions_the_machine(self):
        cores = os.cpu_count() or 1
        assert blas_thread_budget(1) == cores
        assert blas_thread_budget(cores * 2) == 1
        assert blas_thread_budget(2) == max(1, cores // 2)

    def test_pin_and_restore_roundtrip(self):
        sentinel = os.environ.get(BLAS_ENV_VARS[0])
        previous = pin_blas_threads(3)
        try:
            for variable in BLAS_ENV_VARS:
                assert os.environ[variable] == "3"
        finally:
            restore_blas_threads(previous)
        assert os.environ.get(BLAS_ENV_VARS[0]) == sentinel

    def test_default_worker_count_is_bounded(self):
        assert default_worker_count() <= 8
        assert default_worker_count(12) == 12
        assert default_worker_count(0) == 1

    def test_two_shard_dense_run_keeps_thread_budget_bounded(self):
        """Regression: N dense shards must not spawn N full BLAS pools."""
        from repro.service.shard import ShardedScenarioService

        chains = [make_chain(seed, num_states=30) for seed in (21, 22)]
        times = np.linspace(0.1, 2.0, 4)
        budget = str(blas_thread_budget(2))

        async def run():
            async with ShardedScenarioService(
                num_shards=2, coalesce_window=0.0, engine="dense"
            ) as service:
                requests = [
                    MeasureRequest(
                        chain=chain,
                        times=times,
                        kind=MeasureKind.REACHABILITY,
                        target=[chain.num_states - 1],
                    )
                    for chain in chains
                ]
                await service.submit_many(requests)
                return await service.shard_snapshots()

        snapshots = asyncio.run(run())
        assert len(snapshots) == 2
        for snapshot in snapshots:
            assert snapshot.alive and snapshot.threads is not None
            threads = snapshot.threads
            # The worker pool obeys the bounded default ...
            assert threads["pool_max_workers"] <= 8
            # ... the BLAS pin the worker inherited divides the machine ...
            for variable in BLAS_ENV_VARS:
                assert threads["blas_env"][variable] == budget
            # ... and the live thread count stays small (pool + queue
            # plumbing), nowhere near cores x shards x pool explosion.
            assert threads["active_threads"] <= threads["pool_max_workers"] + 12

    def test_parent_environment_is_restored_after_spawn(self):
        from repro.service.shard import ShardedScenarioService

        sentinel = os.environ.get(BLAS_ENV_VARS[0])

        async def run():
            async with ShardedScenarioService(num_shards=2, engine="dense"):
                pass

        asyncio.run(run())
        assert os.environ.get(BLAS_ENV_VARS[0]) == sentinel
