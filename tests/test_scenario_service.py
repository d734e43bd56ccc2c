"""Tests for the async scenario service (`repro.service`).

Covers the acceptance criteria of the service subsystem: concurrent
submissions from many client tasks coalesce into the asserted number of
uniformization sweeps (no more than one batched session), per-caller result
slices match single-request sessions to <= 1e-12, the artifact cache is
bounded and LRU-evicts with instrumented counters, repeat runs report zero
quotient/Fox-Glynn recomputation, and a poisoned request fails its own
future without wedging the dispatcher.
"""

from __future__ import annotations

import asyncio
import dataclasses
import pickle

import numpy as np
import pytest

from helpers import check_exposition
from repro.analysis import AnalysisSession, MeasureKind, MeasureRequest, SessionStats
from repro.cli import main
from repro.ctmc import CTMC
from repro.ctmc.ctmc import CTMCError
from repro.ctmc.foxglynn import fox_glynn
from repro.service import (
    DEFAULT_MAX_ENTRIES,
    ArtifactCache,
    QueueFull,
    ScenarioRegistry,
    ScenarioService,
    ScenarioTimeout,
    ServiceClosed,
    paper_registry,
)


def random_chain(num_states: int, seed: int) -> CTMC:
    rng = np.random.default_rng(seed)
    rates = rng.random((num_states, num_states)) * (
        rng.random((num_states, num_states)) < 0.35
    )
    rates[0, 1] = 0.5
    np.fill_diagonal(rates, 0.0)
    initial = rng.random(num_states)
    return CTMC(
        rates,
        initial / initial.sum(),
        labels={"target": [num_states - 1], "bad": [0]},
    )


def fig45_family_requests(points: int = 7) -> list[MeasureRequest]:
    """The six Fig. 4/5 curves (3 strategies x intervals X1/X2) as requests.

    Expanded from the registry spec so tests, benchmarks and the service
    all exercise the identical family definition.
    """
    return paper_registry().expand("fig4_5", points=points)


# ---------------------------------------------------------------------------
# coalescing across concurrent clients
# ---------------------------------------------------------------------------
class TestCoalescing:
    def test_fig45_clients_cost_no_more_sweeps_than_one_batched_session(self):
        """The tentpole acceptance gate, on the paper's Fig. 4/5 family."""
        num_clients = 3
        family = fig45_family_requests()

        # Baseline: ONE batched session of the unique family.
        baseline_stats = SessionStats()
        baseline = AnalysisSession(stats=baseline_stats)
        indices = [baseline.add(request) for request in family]
        baseline_results = baseline.execute()
        reference = [baseline_results[index].squeezed for index in indices]

        async def run() -> tuple[list, ScenarioService]:
            service = ScenarioService(
                artifacts=ArtifactCache(),
                coalesce_window=5.0,  # never elapses: the size cap flushes
                max_batch=num_clients * len(family),
            )
            async with service:
                async def client() -> list[np.ndarray]:
                    results = await service.submit_many(fig45_family_requests())
                    return [result.squeezed for result in results]

                curves = await asyncio.gather(*(client() for _ in range(num_clients)))
            return curves, service

        curves, service = asyncio.run(run())
        assert service.stats.flushes == 1
        assert service.stats.session.requests == num_clients * len(family)
        # N clients may not cost more sweeps than the single batched session
        assert service.stats.session.sweeps <= baseline_stats.sweeps
        assert service.stats.session.sweeps == baseline_stats.groups
        for client_curves in curves:
            for curve, expected in zip(client_curves, reference):
                np.testing.assert_allclose(curve, expected, atol=1e-12)

    def test_slices_match_single_request_sessions(self):
        chain_a = random_chain(9, seed=0)
        chain_b = random_chain(7, seed=1)
        grid = [0.0, 0.5, 2.0]
        rewards = np.arange(7.0)
        requests = [
            MeasureRequest(chain=chain_a, times=grid, kind=MeasureKind.REACHABILITY,
                           target="target"),
            MeasureRequest(chain=chain_a, times=grid, kind=MeasureKind.TRANSIENT),
            MeasureRequest(chain=chain_b, times=grid,
                           kind=MeasureKind.CUMULATIVE_REWARD, rewards=rewards),
            MeasureRequest(chain=chain_b, times=grid,
                           kind=MeasureKind.INSTANTANEOUS_REWARD, rewards=rewards),
        ]

        async def run():
            async with ScenarioService(
                artifacts=ArtifactCache(), coalesce_window=5.0, max_batch=len(requests)
            ) as service:
                return await asyncio.gather(
                    *(service.submit(request) for request in requests)
                )

        results = asyncio.run(run())
        for request, result in zip(requests, results):
            single = AnalysisSession()
            index = single.add(request)
            expected = single.execute()[index]
            np.testing.assert_allclose(
                result.values, expected.values, atol=1e-12
            )

    def test_submissions_after_a_flush_start_a_new_batch(self):
        chain = random_chain(6, seed=2)
        request = MeasureRequest(chain=chain, times=[1.0], kind=MeasureKind.TRANSIENT)

        async def run():
            async with ScenarioService(
                artifacts=ArtifactCache(), coalesce_window=0.0, max_batch=4
            ) as service:
                first = await service.submit(request)
                second = await service.submit(request)
                return first, second, service.stats.flushes

        first, second, flushes = asyncio.run(run())
        assert flushes == 2
        np.testing.assert_allclose(first.values, second.values, atol=0.0)


# ---------------------------------------------------------------------------
# artifact cache: bounding, eviction, repeat-run hits
# ---------------------------------------------------------------------------
class TestArtifactCache:
    def test_bounded_lru_eviction(self):
        cache = ArtifactCache(max_entries=2)
        grid = np.array([1.0, 2.0])
        cache.poisson_table(1.0, grid, 1e-10)
        cache.poisson_table(2.0, grid, 1e-10)
        cache.poisson_table(1.0, grid, 1e-10)  # refresh 1.0 -> 2.0 becomes LRU
        cache.poisson_table(3.0, grid, 1e-10)  # evicts 2.0
        assert len(cache) == 2
        stats = cache.stats().kind("foxglynn")
        assert stats.evictions == 1
        assert stats.hits == 1
        misses_before = cache.stats().kind("foxglynn").misses
        cache.poisson_table(1.0, grid, 1e-10)  # still cached: no new miss
        cache.poisson_table(2.0, grid, 1e-10)  # was evicted: one new miss
        assert cache.stats().kind("foxglynn").misses == misses_before + 1
        # The grid is part of the key: the same rate on another grid misses.
        cache.poisson_table(2.0, grid[:1], 1e-10)
        assert cache.stats().kind("foxglynn").misses == misses_before + 2

    def test_rejects_degenerate_bound(self):
        with pytest.raises(ValueError):
            ArtifactCache(max_entries=0)

    def test_window_values_match_direct_fox_glynn(self):
        cache = ArtifactCache()
        grid = np.array([0.5, 7.5, 40.0])
        table = cache.poisson_table(1.5, grid, 1e-12)
        for row, time in enumerate(grid):
            window = table.row(row)
            direct = fox_glynn(1.5 * time, 1e-12)
            assert window.left == direct.left and window.right == direct.right
            assert np.array_equal(window.weights, direct.weights)
        # A table is weighed by its bytes, one unit per started 256 KiB.
        assert cache.total_weight == 1
        big = cache.poisson_table(1.5, np.linspace(0.01, 300.0, 2_000), 1e-12)
        assert big.nbytes > 512 * 1024
        assert cache.total_weight == 1 + -(-big.nbytes // (256 * 1024))

    def test_transformed_chain_hits_across_equal_content(self):
        chain = random_chain(8, seed=3)
        rebuilt = CTMC(
            chain.rate_matrix.copy(), chain.initial_distribution,
            labels={"target": [7]},
        )
        mask = np.zeros(8, dtype=bool)
        mask[7] = True
        cache = ArtifactCache()
        first = cache.transformed_chain(chain, mask)
        second = cache.transformed_chain(rebuilt, mask)  # same fingerprint
        assert first is second
        stats = cache.stats().kind("transformed")
        assert (stats.hits, stats.misses) == (1, 1)

    def test_repeat_portfolio_has_zero_quotient_and_window_misses(self):
        family = fig45_family_requests(points=5)
        cache = ArtifactCache()

        async def sweep() -> None:
            async with ScenarioService(
                artifacts=cache, lump=True,
                coalesce_window=5.0, max_batch=len(family),
            ) as service:
                await service.submit_many(fig45_family_requests(points=5))

        asyncio.run(sweep())
        warm_before = cache.stats()
        assert warm_before.kind("quotient").misses > 0
        assert warm_before.kind("foxglynn").misses > 0
        asyncio.run(sweep())
        deltas = cache.stats().misses_since(warm_before)
        assert deltas["quotient"] == 0
        assert deltas["foxglynn"] == 0
        assert deltas["transformed"] == 0
        assert deltas["operator"] == 0

    def test_a_warm_registry_pass_misses_nothing_at_the_default_bound(self):
        """The single-process cache holds the whole lumped paper portfolio:
        a second pass over the eight registry families, one family at a
        time, builds nothing and evicts nothing."""
        registry = paper_registry()
        assert len(registry.names) == 8
        cache = ArtifactCache()
        assert cache.max_entries == DEFAULT_MAX_ENTRIES

        async def two_passes():
            async with ScenarioService(
                artifacts=cache, lump=True, coalesce_window=0.0
            ) as service:
                for name in registry.names:
                    await service.submit_scenario(name)
                warm = cache.stats()
                for name in registry.names:
                    await service.submit_scenario(name)
                return warm

        warm = asyncio.run(two_passes())
        after = cache.stats()
        assert after.kind("foxglynn").hits > warm.kind("foxglynn").hits
        for kind, stats in after.kinds.items():
            assert stats.misses == warm.kind(kind).misses, kind
            assert stats.evictions == warm.kind(kind).evictions, kind
            assert stats.evictions == 0, kind

    def test_services_without_a_cache_do_not_share_one(self):
        request = MeasureRequest(
            chain=random_chain(6, seed=8), times=[1.0], kind=MeasureKind.TRANSIENT
        )

        async def run() -> tuple[ScenarioService, ScenarioService]:
            async with ScenarioService() as first, ScenarioService() as second:
                await first.submit(request)
            return first, second

        first, second = asyncio.run(run())
        assert isinstance(first.artifacts, ArtifactCache)
        assert first.artifacts is not second.artifacts
        assert len(first.artifacts) > 0 and len(second.artifacts) == 0

    def test_quotient_signature_ignores_member_multiplicity_and_order(self):
        # A re-coalesced batch (e.g. two clients instead of one, or members
        # arriving in a different order) observes the same distinct vectors
        # and must hit the cached quotient, not recompute it.
        family = fig45_family_requests(points=5)
        cache = ArtifactCache()
        session = AnalysisSession(lump=True, artifacts=cache)
        for request in family:
            session.add(request)
        session.execute()
        snapshot = cache.stats()
        doubled = AnalysisSession(lump=True, artifacts=cache)
        for request in list(reversed(family)) + family:  # 2 "clients", reordered
            doubled.add(request)
        doubled.execute()
        assert cache.stats().misses_since(snapshot)["quotient"] == 0

    def test_plain_sessions_share_the_injected_cache(self):
        family = fig45_family_requests(points=5)
        cache = ArtifactCache()
        for _ in range(2):
            session = AnalysisSession(lump=True, artifacts=cache)
            indices = [session.add(request) for request in fig45_family_requests(points=5)]
            session.execute()
        assert cache.stats().kind("quotient").hits > 0
        # and the cached path returns the same values as the uncached one
        session = AnalysisSession(lump=True, artifacts=cache)
        cached_indices = [session.add(request) for request in family]
        cached = session.execute()
        plain_session = AnalysisSession(lump=True)
        plain_indices = [plain_session.add(request) for request in family]
        plain = plain_session.execute()
        for cached_index, plain_index in zip(cached_indices, plain_indices):
            np.testing.assert_allclose(
                cached[cached_index].values, plain[plain_index].values, atol=1e-12
            )


# ---------------------------------------------------------------------------
# failure isolation
# ---------------------------------------------------------------------------
class TestFailureIsolation:
    def test_invalid_request_fails_its_own_future_only(self):
        chain = random_chain(6, seed=4)
        good = MeasureRequest(chain=chain, times=[1.0], kind=MeasureKind.TRANSIENT)
        poisoned = MeasureRequest(
            chain=chain, times=[1.0], kind=MeasureKind.REACHABILITY  # no target
        )

        async def run():
            async with ScenarioService(
                artifacts=ArtifactCache(), coalesce_window=5.0, max_batch=3
            ) as service:
                futures = await asyncio.gather(
                    service.submit(good),
                    service.submit(poisoned),
                    service.submit(good),
                    return_exceptions=True,
                )
                # the dispatcher must still serve new submissions afterwards
                followup = await service.submit(good)
                return futures, followup, service.stats

        (first, error, third), followup, stats = asyncio.run(run())
        assert isinstance(error, CTMCError)
        np.testing.assert_allclose(first.values, third.values, atol=0.0)
        np.testing.assert_allclose(followup.values, first.values, atol=1e-12)
        assert stats.failed == 1
        assert stats.completed == 3

    def test_execution_error_fails_only_its_group(self):
        chain = random_chain(6, seed=5)
        good = MeasureRequest(chain=chain, times=[1.0], kind=MeasureKind.TRANSIENT)
        # epsilon outside (0, 1) passes request validation but blows up in
        # the Fox-Glynn window build of its own (separately-keyed) group.
        poisoned = MeasureRequest(
            chain=chain, times=[1.0], kind=MeasureKind.TRANSIENT, epsilon=1.5
        )

        async def run():
            async with ScenarioService(
                artifacts=ArtifactCache(), coalesce_window=5.0, max_batch=2
            ) as service:
                return await asyncio.gather(
                    service.submit(good),
                    service.submit(poisoned),
                    return_exceptions=True,
                )

        good_result, error = asyncio.run(run())
        assert isinstance(error, ValueError)
        single = AnalysisSession()
        index = single.add(good)
        np.testing.assert_allclose(
            good_result.values, single.execute()[index].values, atol=1e-12
        )

    def test_close_without_drain_fails_queued_futures(self):
        # Submissions still waiting out the coalescing window must not hang
        # when the service is torn down without draining.
        chain = random_chain(5, seed=12)
        request = MeasureRequest(chain=chain, times=[1.0], kind=MeasureKind.TRANSIENT)

        async def run():
            service = ScenarioService(
                artifacts=ArtifactCache(), coalesce_window=30.0, max_batch=99
            )
            async with service:
                submission = asyncio.ensure_future(service.submit(request))
                await asyncio.sleep(0.05)  # queued, window still open
                await service.close(drain=False)
                with pytest.raises(ServiceClosed):
                    await submission

        asyncio.run(run())

    def test_closed_service_rejects_submissions(self):
        chain = random_chain(5, seed=6)
        request = MeasureRequest(chain=chain, times=[1.0], kind=MeasureKind.TRANSIENT)

        async def run():
            service = ScenarioService(artifacts=ArtifactCache())
            async with service:
                await service.submit(request)
            with pytest.raises(ServiceClosed):
                await service.submit(request)

        asyncio.run(run())


# ---------------------------------------------------------------------------
# scenario registry
# ---------------------------------------------------------------------------
class TestScenarioRegistry:
    def test_paper_portfolio_names(self):
        registry = paper_registry()
        for name in ("fig3", "fig4_5", "fig6", "fig7", "fig8_9", "fig10", "fig11"):
            assert name in registry

    def test_fig45_spec_expands_to_the_figure_family(self):
        registry = paper_registry()
        requests = registry.expand("fig4_5", points=5)
        assert len(requests) == 6  # 3 strategies x intervals X1/X2
        tags = {request.tag for request in requests}
        assert all(tag[0] == "fig4_5" for tag in tags)
        assert {tag[3] for tag in tags} == {0, 1}
        assert all(request.kind is MeasureKind.REACHABILITY for request in requests)
        assert all(len(np.asarray(request.times)) == 5 for request in requests)

    def test_unknown_and_duplicate_names_are_rejected(self):
        registry = paper_registry()
        with pytest.raises(KeyError):
            registry.expand("no_such_scenario")
        with pytest.raises(ValueError):
            registry.register(registry.get("fig3"))
        registry.register(registry.get("fig3"), replace_existing=True)

    def test_submit_scenario_returns_tagged_pairs(self):
        async def run():
            async with ScenarioService(
                artifacts=ArtifactCache(), coalesce_window=0.02
            ) as service:
                return await service.submit_scenario("fig4_5", points=5)

        pairs = asyncio.run(run())
        assert len(pairs) == 6
        for request, result in pairs:
            assert result.request is request
            assert request.tag[0] == "fig4_5"
            assert result.squeezed.shape == (5,)


# ---------------------------------------------------------------------------
# scenario expansions: one cache entry per (spec, points), read-only
# ---------------------------------------------------------------------------
def array_fields(request: MeasureRequest) -> dict[str, np.ndarray]:
    values = {field.name: getattr(request, field.name) for field in dataclasses.fields(request)}
    return {name: value for name, value in values.items() if isinstance(value, np.ndarray)}


class TestScenarioExpansions:
    @pytest.mark.parametrize("lump", [True, False], ids=["lumped", "unlumped"])
    def test_memoised_request_arrays_are_read_only_and_never_written(self, lump):
        registry = paper_registry()
        fresh = {
            name: [
                {key: array.copy() for key, array in array_fields(request).items()}
                for request in registry.expand(name, points=9)
            ]
            for name in registry.names
        }

        async def two_passes():
            async with ScenarioService(lump=lump) as service:
                for _ in range(2):
                    for name in registry.names:
                        await service.submit_scenario(name, points=9)
                return {
                    name: service.artifacts.scenario(registry.get(name), 9)
                    for name in registry.names
                }

        memo = asyncio.run(two_passes())
        checked = 0
        for name, expansion in memo.items():
            assert len(expansion.requests) == len(fresh[name])
            for request, before in zip(expansion.requests, fresh[name]):
                arrays = array_fields(request)
                assert arrays.keys() == before.keys()
                for key, array in arrays.items():
                    assert not array.flags.writeable, (name, key)
                    assert (array.dtype, array.shape) == (before[key].dtype, before[key].shape)
                    assert array.tobytes() == before[key].tobytes(), (name, key)
                    checked += 1
        assert checked == 92  # times, targets, initials and reward vectors

    def test_a_re_registered_spec_is_served_its_own_requests(self, expansions):
        original = paper_registry().get("fig10")
        longer = dataclasses.replace(original, horizon=80.0)
        registry = ScenarioRegistry([original])

        async def run():
            horizons = []
            async with ScenarioService(lump=True, registry=registry) as service:
                for spec in (original, longer, original):
                    registry.register(spec, replace_existing=True)
                    pairs = await service.submit_scenario("fig10", points=5)
                    horizons.append({float(request.times[-1]) for request, _ in pairs})
            return horizons

        assert asyncio.run(run()) == [{50.0}, {80.0}, {50.0}]
        assert expansions == {("fig10", 5): 2}  # the original's entry serves it again

    def test_an_expansion_racing_a_re_registration_keeps_its_spec(self):
        original = paper_registry().get("fig10")
        longer = dataclasses.replace(original, horizon=80.0)

        class Racing(ScenarioRegistry):
            def expand(self, name, points=None):
                self.register(longer, replace_existing=True)  # lands mid-expansion
                return super().expand(name, points=points)

        expansion = Racing([original]).expansion(original, 5)
        assert {float(request.times[-1]) for request in expansion.requests} == {50.0}

    def test_each_grid_is_an_entry_and_a_flood_of_grids_stays_bounded(self, expansions):
        spec = paper_registry().get("fig6")
        cache = ArtifactCache(max_entries=40)

        async def run():
            async with ScenarioService(lump=True, artifacts=cache) as service:
                for points in (5, 6, 5, None, spec.points):
                    await service.submit_scenario("fig6", points=points)
                first = cache.stats().kind("scenario")
                weights = []
                for points in range(7, 27):
                    await service.submit_scenario("fig6", points=points)
                    weights.append(cache.total_weight)
            return first, weights

        first, weights = asyncio.run(run())
        assert (first.misses, first.hits) == (4, 1)
        assert expansions[("fig6", 5)] == 1 and expansions[("fig6", None)] == 1
        # Each fig6 entry weighs 5 units (1.1 MB of arrays), so the bound of
        # 40 holds at most eight of them.
        assert max(weights) <= cache.max_entries
        flood = cache.stats().kind("scenario")
        assert flood.misses == 4 + 20 and flood.evictions > 0
        assert cache.scenario(spec, 26) is not None and cache.scenario(spec, 7) is None

    def test_expansions_key_no_chain_fingerprint(self):
        registry = paper_registry()
        spec = registry.get("fig10")
        cache = ArtifactCache()
        cache.scenario(spec, None, lambda: registry.expansion(spec))
        assert len(cache) == 1 and cache.chain_fingerprints() == frozenset()


# ---------------------------------------------------------------------------
# chain fingerprints (the cache keys)
# ---------------------------------------------------------------------------
class TestChainFingerprints:
    def test_equal_content_equal_fingerprint(self):
        chain = random_chain(8, seed=7)
        rebuilt = CTMC(chain.rate_matrix.copy(), chain.initial_distribution)
        assert chain.fingerprint == rebuilt.fingerprint

    def test_labels_and_initials_do_not_change_the_fingerprint(self):
        chain = random_chain(8, seed=8)
        relabelled = chain.restrict_labels(extra=[0, 1])
        moved = chain.with_initial_distribution({3: 1.0})
        assert chain.fingerprint == relabelled.fingerprint
        assert chain.fingerprint == moved.fingerprint

    def test_different_rates_different_fingerprint(self):
        assert random_chain(8, seed=9).fingerprint != random_chain(8, seed=10).fingerprint

    def test_content_key_covers_initials_and_labels(self):
        chain = random_chain(8, seed=11)
        assert pickle.loads(pickle.dumps(chain)).content_key == chain.content_key
        rebuilt = CTMC(
            chain.rate_matrix.copy(),
            chain.initial_distribution,
            labels={name: chain.label_states(name) for name in chain.label_names},
        )
        assert rebuilt.content_key == chain.content_key
        variants = [
            chain.with_initial_distribution({3: 1.0}),
            chain.restrict_labels(extra=[0, 1]),
            chain.restrict_labels(target=[0]),  # same label name, other states
        ]
        assert all(variant.fingerprint == chain.fingerprint for variant in variants)
        keys = {chain.content_key, *(variant.content_key for variant in variants)}
        assert len(keys) == 1 + len(variants)

    def test_add_label_invalidates_the_content_key(self):
        chain = random_chain(8, seed=12)
        before = chain.content_key
        chain.add_label("extra", [0, 1])
        assert chain.content_key != before
        assert chain.content_key == random_chain(8, seed=12).restrict_labels(
            extra=[0, 1]
        ).content_key


# ---------------------------------------------------------------------------
# backpressure and per-request deadlines (in-process dispatcher)
# ---------------------------------------------------------------------------
class TestBackpressureAndDeadlines:
    def _request(self, seed: int = 40) -> MeasureRequest:
        return MeasureRequest(
            chain=random_chain(6, seed=seed),
            times=[0.5, 1.0],
            kind=MeasureKind.REACHABILITY,
            target="target",
        )

    def test_queue_full_at_cap_without_poisoning_other_callers(self):
        async def run():
            service = ScenarioService(
                artifacts=ArtifactCache(), coalesce_window=0.5, max_pending=2
            )
            async with service:
                first = asyncio.ensure_future(service.submit(self._request(41)))
                second = asyncio.ensure_future(service.submit(self._request(42)))
                await asyncio.sleep(0.01)  # both are queued, the window is open
                with pytest.raises(QueueFull):
                    await service.submit(self._request(43))
                results = await asyncio.gather(first, second)
                # The rejection consumed nothing: a retry succeeds once the
                # queue drained.
                retry = await service.submit(self._request(43))
                return results, retry, service.stats

        results, retry, stats = asyncio.run(run())
        assert all(result.values.shape == (1, 2) for result in results)
        assert retry.values.shape == (1, 2)
        assert stats.rejected == 1
        assert stats.submissions == 3  # the rejected call never enqueued
        assert stats.completed == 3 and stats.failed == 0

    def test_timeout_cancels_only_its_own_future(self):
        async def run():
            service = ScenarioService(
                artifacts=ArtifactCache(), coalesce_window=0.2
            )
            async with service:
                doomed = service.submit(self._request(44), timeout=0.01)
                sibling = service.submit(self._request(45))
                timed_out, result = await asyncio.gather(
                    doomed, sibling, return_exceptions=True
                )
                return timed_out, result, service.stats

        timed_out, result, stats = asyncio.run(run())
        assert isinstance(timed_out, ScenarioTimeout)
        assert isinstance(timed_out, TimeoutError)  # idiomatic to catch either
        assert not isinstance(result, BaseException)
        assert result.values.shape == (1, 2)
        assert stats.timeouts == 1
        # The timed-out request was dropped before planning: exactly the
        # sibling's work was executed and completed.
        assert stats.session.requests == 1
        assert stats.completed == 1

    def test_default_timeout_applies_and_explicit_overrides(self):
        async def run():
            service = ScenarioService(
                artifacts=ArtifactCache(),
                coalesce_window=0.15,
                default_timeout=0.01,
            )
            async with service:
                with pytest.raises(ScenarioTimeout):
                    await service.submit(self._request(46))
                # A generous explicit timeout overrides the tight default.
                result = await service.submit(self._request(47), timeout=30.0)
                return result, service.stats

        result, stats = asyncio.run(run())
        assert result.values.shape == (1, 2)
        assert stats.timeouts == 1

    def test_submit_many_applies_per_request_deadlines(self):
        async def run():
            service = ScenarioService(
                artifacts=ArtifactCache(), coalesce_window=0.1
            )
            async with service:
                with pytest.raises(ScenarioTimeout):
                    await service.submit_many(
                        [self._request(48), self._request(49)], timeout=0.01
                    )
                # The service is not wedged afterwards.
                results = await service.submit_many(
                    [self._request(48), self._request(49)]
                )
                return results

        results = asyncio.run(run())
        assert len(results) == 2

    def test_submit_many_over_cap_cancels_the_partial_batch(self):
        """A rejected batch must not leave orphans computing in the background."""

        async def run():
            service = ScenarioService(
                artifacts=ArtifactCache(), coalesce_window=0.1, max_pending=2
            )
            async with service:
                with pytest.raises(QueueFull):
                    await service.submit_many(
                        [self._request(50), self._request(51), self._request(52)]
                    )
                await asyncio.sleep(0.3)  # any leaked work would flush here
                leaked = service.stats.session.requests
                results = await service.submit_many(
                    [self._request(50), self._request(51)]
                )
                return leaked, results

        leaked, results = asyncio.run(run())
        assert leaked == 0  # the partial batch was cancelled before planning
        assert len(results) == 2

    def test_invalid_backpressure_configuration_rejected(self):
        with pytest.raises(ValueError):
            ScenarioService(max_pending=0)
        with pytest.raises(ValueError):
            ScenarioService(default_timeout=-1.0)


# ---------------------------------------------------------------------------
# python -m repro serve: the local multi-client sweep
# ---------------------------------------------------------------------------
class TestServeCommand:
    def test_a_warm_round_recomputes_nothing_and_the_dump_checks(self, capsys):
        argv = ["serve", "--scenarios", "fig3", "--fast", "--repeat", "2"]
        assert main(argv + ["--clients", "2", "--metrics"]) == 0
        report, _, dump = capsys.readouterr().out.partition("\n\n")
        first, second, service, cache = report.splitlines()
        assert first.startswith("[round 1] 4 curves for 2 clients, sweeps +")
        assert second.startswith("[round 2] 4 curves for 2 clients, sweeps +")
        misses = second.partition("cache misses: ")[2].split(", ")
        assert misses and all(miss.endswith("+0") for miss in misses), second
        assert service.startswith("[service: submissions=8 completed=8 ")
        assert "| session: requests=8 " in service and "| flush_latency: " in service
        assert cache.startswith("[cache: kinds(")
        families = check_exposition(dump)
        _, submissions = families["repro_service_submissions_total"]
        assert submissions == {("repro_service_submissions_total", ()): 8.0}
        assert "repro_cache_misses_total" in families
