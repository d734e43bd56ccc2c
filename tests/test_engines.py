"""Tests of the numeric-backend layer (:mod:`repro.ctmc.engines`).

Covers the backend implementations (sparse CSR, dense BLAS), the two rules
that pick them — the sweep rule and its crossover, the factorization rule —
the absence of any knob that would let a caller override them, dense-LU
long-run solves, the dense-operator cache, and the BLAS/thread-pool
oversubscription guard — including a regression test that a two-shard
dense run keeps every worker's thread budget bounded.
"""

from __future__ import annotations

import asyncio
import os

import numpy as np
import pytest
from scipy import sparse

from repro.analysis import AnalysisSession, MeasureKind, MeasureRequest, build_plan
from repro.analysis.executor import backward_values
from repro.ctmc import CTMC, engines
from repro.ctmc.engines import (
    BLAS_ENV_VARS,
    DENSE_RELAXED_LIMIT,
    DENSE_SOLVE_LIMIT,
    DENSE_STATE_LIMIT,
    DenseEngine,
    DenseFactorization,
    SparseEngine,
    SparseFactorization,
    blas_thread_budget,
    factorization_backend,
    factorize,
    pin_blas_threads,
    restore_blas_threads,
    sweep_backend,
    sweep_engine,
)
from repro.ctmc.foxglynn import fox_glynn_table
from repro.ctmc.linsolve import SolverEngine
from repro.ctmc.steady_state import steady_state_distribution
from repro.ctmc.uniformization import (
    UniformizationStats,
    evaluate_grid_block,
    poisson_mixture_sweep,
)
from repro.ctmc.artifacts import DENSE_WEIGHT_UNIT_BYTES, ArtifactCache


def make_chain(seed: int = 0, num_states: int = 40, density: float = 0.25) -> CTMC:
    rng = np.random.default_rng(seed)
    rates = rng.uniform(0.1, 2.0, (num_states, num_states))
    rates *= rng.random((num_states, num_states)) < density
    np.fill_diagonal(rates, 0.0)
    initial = rng.random(num_states) + 1e-3
    return CTMC(rates, initial / initial.sum())


# ---------------------------------------------------------------------------
# knobs that would choose a numeric path are gone
# ---------------------------------------------------------------------------
class TestNormalisation:
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
                chain,
                [1.0],
                chain.initial_distribution[None, :],
                dtype="float64",
                artifacts=ArtifactCache(),
            )

    def test_callers_choose_no_backend(self):
        """The input alone picks the backend: no layer takes an ``engine=``,
        ``mode=`` or ``method=`` knob."""
        from repro.cli import run_experiments
        from repro.service import ScenarioService
        from repro.service.shard import ShardedScenarioService

        chain = make_chain(1)
        with pytest.raises(TypeError, match="engine"):
            AnalysisSession(engine="dense")
        with pytest.raises(TypeError, match="engine"):
            MeasureRequest(chain=chain, times=[1.0], engine="dense")
        with pytest.raises(TypeError, match="engine"):
            ScenarioService(engine="dense")
        with pytest.raises(TypeError, match="engine"):
            ShardedScenarioService(engine="dense")
        with pytest.raises(TypeError, match="engine"):
            run_experiments(["table1"], engine="dense")
        with pytest.raises(TypeError, match="default_engine"):
            build_plan([], default_engine="dense", artifacts=ArtifactCache())
        with pytest.raises(TypeError, match="mode"):
            SolverEngine(mode="dense")
        with pytest.raises(TypeError, match="method"):
            steady_state_distribution(chain, method="direct")
        with pytest.raises(TypeError, match="engine"):
            evaluate_grid_block(
                chain,
                [1.0],
                chain.initial_distribution[None, :],
                engine="dense",
                artifacts=ArtifactCache(),
            )
        with pytest.raises(TypeError, match="engine"):
            backward_values(
                chain,
                np.ones(chain.num_states),
                [1.0],
                epsilon=1e-10,
                engine="dense",
                artifacts=ArtifactCache(),
            )


# ---------------------------------------------------------------------------
# backend equivalence on real sweeps
# ---------------------------------------------------------------------------
class TestBackendEquivalence:
    def _sweep(self, chain, make_engine=None, stats=None):
        """Instantaneous reward of the last state on a grid, walked by the
        engine ``make_engine`` builds (``None``: the operator walked as CSR)."""
        operator, q = chain.uniformized_transpose()
        table = fox_glynn_table(q * np.linspace(0.1, 3.0, 6), 1e-10)
        rewards = np.zeros(chain.num_states)
        rewards[-1] = 1.0
        _, sequence = poisson_mixture_sweep(
            operator,
            chain.initial_distribution,
            table.matrix,
            rewards=rewards,
            collect_mixtures=False,
            stats=stats,
            engine=make_engine(operator) if make_engine is not None else None,
        )
        return table.fold(sequence)

    @staticmethod
    def _dense(operator):
        return DenseEngine(operator.toarray(), operator.nnz)

    def test_sparse_lane_is_bit_exact_with_legacy(self):
        chain = make_chain(3)
        legacy = self._sweep(chain)
        via_engine = self._sweep(chain, SparseEngine)
        assert np.array_equal(legacy, via_engine)

    def test_dense_lane_matches_legacy(self):
        chain = make_chain(4)
        legacy = self._sweep(chain)
        dense = self._sweep(chain, self._dense)
        assert np.max(np.abs(legacy - dense)) <= 1e-12

    def test_op_accounting_is_backend_invariant(self):
        chain = make_chain(6)
        flops, equivalents = [], []
        for make_engine in (None, SparseEngine, self._dense):
            stats = UniformizationStats()
            self._sweep(chain, make_engine, stats=stats)
            flops.append(stats.sparse_flops)
            equivalents.append(stats.equivalent_nnz)
            assert stats.sweep_seconds > 0.0
        # Dense GEMMs report the *equivalent* sparse op count, so existing
        # flop-based perf gates keep measuring algorithmic work.
        assert len(set(flops)) == 1
        assert len(set(equivalents)) == 1 and equivalents[0] == flops[0]


# ---------------------------------------------------------------------------
# the two rules
# ---------------------------------------------------------------------------
class TestEngineSelector:
    def test_small_chains_go_dense(self):
        assert sweep_backend(DENSE_STATE_LIMIT, 10) == "dense"

    def test_large_sparse_chains_stay_sparse(self):
        big = 4 * DENSE_RELAXED_LIMIT
        assert sweep_backend(big, big * 5) == "sparse"

    def test_crossover_in_relaxed_band_depends_on_density(self):
        """Between the limits the operator fill decides the backend."""
        size = (DENSE_STATE_LIMIT + DENSE_RELAXED_LIMIT) // 2
        dense_fill = int(0.2 * size * size)
        sparse_fill = int(0.05 * size * size)
        assert sweep_backend(size, dense_fill) == "dense"
        assert sweep_backend(size, sparse_fill) == "sparse"

    def test_memory_guard_forces_sparse(self):
        """No operator beyond the relaxed band is densified, however full, so
        a dense operator never exceeds DENSE_RELAXED_LIMIT² float64 entries."""
        full = DENSE_RELAXED_LIMIT * DENSE_RELAXED_LIMIT
        assert sweep_backend(DENSE_RELAXED_LIMIT, full) == "dense"
        beyond = DENSE_RELAXED_LIMIT + 1
        assert sweep_backend(beyond, beyond * beyond) == "sparse"
        assert full * 8 <= 5 << 20

    def test_sweep_engine_builds_matching_backends(self):
        small = make_chain(9, num_states=20)
        engine, q = sweep_engine(small, ArtifactCache())
        assert isinstance(engine, DenseEngine) and q == small.max_exit_rate
        large = make_chain(9, num_states=DENSE_RELAXED_LIMIT + 1, density=0.01)
        engine, q = sweep_engine(large, ArtifactCache(), backward=True)
        assert isinstance(engine, SparseEngine) and q == large.max_exit_rate

    def test_both_sweeps_apply_the_rule_to_their_own_operator(self, monkeypatch):
        """``evaluate_grid_block`` and ``backward_values`` each ask the sweep
        rule once, with the order and non-zeros of the operator they walk;
        forcing the rule sparse changes no value beyond rounding."""
        chain = make_chain(11, num_states=30)
        times = [0.5, 1.5]
        values = np.linspace(0.0, 1.0, chain.num_states)

        def sweeps():
            forward = evaluate_grid_block(
                chain,
                times,
                chain.initial_distribution[None, :],
                distributions=True,
                artifacts=ArtifactCache(),
            ).distributions
            backward = backward_values(
                chain, values, times, epsilon=1e-10, artifacts=ArtifactCache()
            )
            return forward, backward

        asked = []
        rule = engines.sweep_backend

        def recorded(num_states, nnz):
            asked.append((num_states, nnz))
            return rule(num_states, nnz)

        monkeypatch.setattr(engines, "sweep_backend", recorded)
        by_rule = sweeps()
        operator, _ = chain.uniformized_transpose()
        assert asked == [(chain.num_states, operator.nnz)] * 2
        assert rule(chain.num_states, operator.nnz) == "dense"
        monkeypatch.setattr(engines, "sweep_backend", lambda num_states, nnz: "sparse")
        for dense, sparse_walk in zip(by_rule, sweeps()):
            assert np.max(np.abs(dense - sparse_walk)) <= 1e-12

    def test_factorization_rule_follows_the_system_order(self):
        assert factorization_backend(DENSE_SOLVE_LIMIT) == "dense"
        assert factorization_backend(DENSE_SOLVE_LIMIT + 1) == "sparse"
        small = sparse.eye(DENSE_SOLVE_LIMIT, format="csc") * 2.0
        large = sparse.eye(DENSE_SOLVE_LIMIT + 1, format="csc") * 2.0
        assert isinstance(factorize(small), DenseFactorization)
        assert isinstance(factorize(large), SparseFactorization)


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

    @staticmethod
    def _longrun_session(chain):
        session = AnalysisSession()
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
        return [result.squeezed[0] for result in session.execute()], session.stats

    @pytest.mark.parametrize("mode", ["auto", "sparse", "dense"])
    def test_longrun_measures_agree_across_solver_modes(self, mode, monkeypatch):
        """Forcing the factorization rule either way changes no long-run value."""
        chain = make_chain(10, num_states=35)
        expected, _ = self._longrun_session(chain)
        if mode != "auto":
            monkeypatch.setattr(engines, "factorization_backend", lambda order: mode)
        values, stats = self._longrun_session(chain)
        assert np.allclose(values, expected, rtol=0.0, atol=1e-10)
        # A 35-state system is below DENSE_SOLVE_LIMIT, so the rule (and the
        # rule forced dense) takes the dense LU path and says so in the stats.
        assert chain.num_states <= DENSE_SOLVE_LIMIT
        if mode in ("auto", "dense"):
            assert stats.dense_factorizations >= 1
        else:
            assert stats.dense_factorizations == 0
        assert stats.factor_seconds >= 0.0


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
            session = AnalysisSession(artifacts=artifacts)
            session.request(
                chain, times, kind=MeasureKind.REACHABILITY, target=[0]
            )
            session.execute()
        counters = artifacts.stats().kinds["dense_operator"]
        assert counters.misses == 1 and counters.hits >= 1

    def test_backend_choice_is_recomputed_not_cached(self, monkeypatch):
        """The cache keeps densified operators but no backend decision: a warm
        sweep asks the rule again, from its own operator."""
        artifacts = ArtifactCache()
        chain = make_chain(15, num_states=30)
        asked = []
        rule = engines.sweep_backend

        def recorded(num_states, nnz):
            asked.append(num_states)
            return rule(num_states, nnz)

        monkeypatch.setattr(engines, "sweep_backend", recorded)
        for _ in range(2):
            session = AnalysisSession(artifacts=artifacts)
            session.request(
                chain, [0.5, 1.0], kind=MeasureKind.REACHABILITY, target=[0]
            )
            session.execute()
        assert asked == [chain.num_states] * 2
        assert "engine" not in artifacts.stats().kinds
        assert not hasattr(artifacts, "engine_choice")


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

    def test_two_shard_dense_run_keeps_thread_budget_bounded(self):
        """Regression: N dense shards must not spawn N full BLAS pools."""
        from repro.service.shard import ShardedScenarioService

        chains = [make_chain(seed, num_states=30) for seed in (21, 22)]
        times = np.linspace(0.1, 2.0, 4)
        budget = str(blas_thread_budget(2))

        async def run():
            async with ShardedScenarioService(
                num_shards=2, coalesce_window=0.0
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
            # The BLAS pin the worker inherited divides the machine ...
            for variable in BLAS_ENV_VARS:
                assert threads["blas_env"][variable] == budget
            # ... and the live thread count stays small (the computing main
            # thread + queue plumbing), nowhere near cores x shards.
            assert threads["active_threads"] <= 1 + 12

    def test_parent_environment_is_restored_after_spawn(self):
        from repro.service.shard import ShardedScenarioService

        sentinel = os.environ.get(BLAS_ENV_VARS[0])

        async def run():
            async with ShardedScenarioService(num_shards=2):
                pass

        asyncio.run(run())
        assert os.environ.get(BLAS_ENV_VARS[0]) == sentinel
