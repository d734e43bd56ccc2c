"""Tests for the sharded multi-process scenario service (`repro.service.shard`).

Covers the tentpole acceptance criteria: a 2-shard run of the full
``paper_registry()`` portfolio matches the single-process service to
<= 1e-12 with disjoint per-shard chain ownership, the shared-nothing stats
protocol aggregates both shards' counters, a killed worker fails exactly
its own in-flight scenarios while the remaining shards keep serving, and
the sharded front applies the same backpressure (``QueueFull``) and
per-request deadline (``ScenarioTimeout``) policies as the in-process
dispatcher.  The content-addressed chain transport is covered too: each
chain content key is uploaded once per worker, chains that share a rate
matrix keep their own initials and labels, mostly-zero initial
distributions travel as their entries, and duplicated clients cost the
single-process sweep count.  Registry passes do the same work in process
and on 1 and 2 shards (values, sweeps, one flush per family and shard),
and the worker loop itself runs in-process on plain queues, so its body
is covered without a spawned process.
"""

from __future__ import annotations

import asyncio
import json
import pickle
import queue
import threading
from dataclasses import replace

import numpy as np
import pytest

from helpers import check_exposition
from repro.analysis import MeasureKind, MeasureRequest
from repro.ctmc import CTMC
from repro.ctmc.uniformization import DEFAULT_EPSILON
from repro.service import (
    DEFAULT_COALESCE_WINDOW,
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_ENTRIES,
    ArtifactCache,
    CacheStats,
    ChaosEvent,
    ChaosPolicy,
    QueueFull,
    ScenarioHTTPServer,
    ScenarioService,
    ScenarioTimeout,
    ServiceClosed,
    ShardCrashed,
    ShardedScenarioService,
    paper_registry,
    shard_for_fingerprint,
)
from repro.service import shard
from repro.service.shard import _request_payload, _shard_worker_main, _SparseVectors

NUM_SHARDS = 2

#: Coarse grid keeping the full-portfolio acceptance run fast; the values
#: compared are exact at any resolution.
PORTFOLIO_POINTS = 7


def random_chain(num_states: int, seed: int, rate_scale: float = 1.0) -> CTMC:
    rng = np.random.default_rng(seed)
    rates = rng.random((num_states, num_states)) * (
        rng.random((num_states, num_states)) < 0.4
    )
    np.fill_diagonal(rates, 0.0)
    rates[0, 1] = 0.5
    initial = rng.random(num_states)
    return CTMC(
        rates * rate_scale,
        initial / initial.sum(),
        labels={"target": [num_states - 1]},
    )


def chain_owned_by(shard: int, num_states: int = 6, rate_scale: float = 1.0) -> CTMC:
    """A small random chain whose fingerprint routes to ``shard``."""
    for seed in range(1000):
        chain = random_chain(num_states, seed=7000 + seed, rate_scale=rate_scale)
        if shard_for_fingerprint(chain.fingerprint, NUM_SHARDS) == shard:
            return chain
    raise AssertionError("no seed routed to the requested shard")  # pragma: no cover


def reachability_request(chain: CTMC, times=(0.5, 1.0, 2.0)) -> MeasureRequest:
    return MeasureRequest(
        chain=chain, times=times, kind=MeasureKind.REACHABILITY, target="target"
    )


def single_process_values(requests: list[MeasureRequest]) -> list[np.ndarray]:
    async def run():
        async with ScenarioService(
            artifacts=ArtifactCache(), coalesce_window=0.0
        ) as service:
            return await service.submit_many(list(requests))

    return [result.values for result in asyncio.run(run())]


class Unpicklable:
    """An attribute that refuses to be pickled."""

    def __reduce__(self):
        raise TypeError("this attribute cannot be pickled")


@pytest.fixture(scope="module")
def portfolio() -> list[MeasureRequest]:
    """The full paper portfolio (state spaces come from the shared cache)."""
    registry = paper_registry()
    return [
        request
        for name in registry.names
        for request in registry.expand(name, points=PORTFOLIO_POINTS)
    ]


@pytest.fixture(scope="module")
def baseline(portfolio):
    """Single-process reference results for the whole portfolio."""

    async def run():
        service = ScenarioService(
            artifacts=ArtifactCache(), coalesce_window=0.05, max_batch=1024
        )
        async with service:
            return await service.submit_many(list(portfolio))

    return asyncio.run(run())


# ---------------------------------------------------------------------------
# the tentpole acceptance gate: 2 shards == 1 process, chains never duplicated
# ---------------------------------------------------------------------------
class TestShardedPortfolio:
    def test_two_shard_portfolio_matches_single_process(self, portfolio, baseline):
        # Heartbeats off: the exact worker-counter bookkeeping asserted
        # below only holds while no restart ever resets a worker, and this
        # test injects no faults.
        async def run():
            async with ShardedScenarioService(
                NUM_SHARDS,
                coalesce_window=0.05,
                max_batch=1024,
                heartbeat_interval=None,
            ) as sharded:
                results = await sharded.submit_many(list(portfolio))
                snapshots = await sharded.shard_snapshots()
                return results, snapshots, sharded.stats

        results, snapshots, stats = asyncio.run(run())

        deviation = max(
            float(np.max(np.abs(result.values - reference.values)))
            for result, reference in zip(results, baseline)
        )
        assert deviation <= 1e-12
        for result, reference in zip(results, baseline):
            assert result.request is reference.request  # re-attached, not rebuilt
            np.testing.assert_array_equal(result.times, reference.times)

        # Both workers genuinely served traffic...
        assert stats.submissions == len(portfolio)
        assert stats.completed == len(portfolio)
        assert all(count > 0 for count in stats.routed.values())
        served = {snapshot.index: snapshot for snapshot in snapshots}
        assert sorted(served) == list(range(NUM_SHARDS))
        for snapshot in snapshots:
            assert snapshot.alive
            assert snapshot.service is not None
            assert snapshot.service.session.requests == stats.routed[snapshot.index]
        # ...and fingerprint routing gave each chain exactly one owner: the
        # artifact caches of the two shards cover disjoint chain sets.
        fingerprints = [snapshot.fingerprints for snapshot in snapshots]
        assert all(fingerprints)
        assert not (fingerprints[0] & fingerprints[1])

    def test_aggregated_metrics_cover_both_shards(self, portfolio, baseline):
        del baseline  # only ordering matters: module fixtures stay warm

        async def run():
            async with ShardedScenarioService(
                NUM_SHARDS,
                coalesce_window=0.05,
                max_batch=1024,
                heartbeat_interval=None,
            ) as sharded:
                await sharded.submit_many(list(portfolio))
                snapshots = await sharded.shard_snapshots()
                return await sharded.metrics_text(), snapshots

        text, snapshots = asyncio.run(run())
        lines = text.splitlines()
        total = sum(snapshot.service.session.requests for snapshot in snapshots)
        assert f"repro_service_requests_total {total}" in lines
        assert f"repro_front_submissions_total {len(portfolio)}" in lines
        for index in range(NUM_SHARDS):
            assert f'repro_shard_alive{{shard="{index}"}} 1' in lines
            assert any(
                line.startswith(f'repro_shard_routed_total{{shard="{index}"}}')
                for line in lines
            )


# ---------------------------------------------------------------------------
# one process = 1 shard = N shards, flush for flush
# ---------------------------------------------------------------------------
class TestWorkInvariance:
    def test_registry_passes_do_the_same_work_on_every_front(self):
        # Two sequential passes of every registry family, every setting at
        # its default except lumping (on, as ``serve`` runs).  A family call
        # plans as one flush in process and on one shard, and as one flush
        # per shard it touches on two.
        registry = paper_registry()
        points = 9
        pairs = sum(
            len({
                shard_for_fingerprint(request.chain.fingerprint, NUM_SHARDS)
                for request in registry.expand(name, points=points)
            })
            for name in registry.names
        )

        async def two_passes(service):
            return [
                await service.submit_scenario(name, points=points)
                for _ in range(2)
                for name in registry.names
            ]

        async def in_process():
            async with ScenarioService(lump=True) as service:
                families = await two_passes(service)
                return (
                    families,
                    service.stats.session.sweeps,
                    service.stats.flushes,
                    service.metrics_text(),
                )

        async def front(num_shards):
            async with ShardedScenarioService(num_shards, lump=True) as sharded:
                families = await two_passes(sharded)
                snapshots = await sharded.shard_snapshots()
                metrics = await sharded.metrics_text()
            return (
                families,
                sum(snapshot.service.session.sweeps for snapshot in snapshots),
                sum(snapshot.service.flushes for snapshot in snapshots),
                metrics,
            )

        runs = [
            asyncio.run(in_process()),
            asyncio.run(front(1)),
            asyncio.run(front(NUM_SHARDS)),
        ]
        reference = runs[0][0]
        for families, _sweeps, _flushes, _metrics in runs[1:]:
            for family, expected in zip(families, reference):
                assert [request.tag for request, _ in family] == [
                    request.tag for request, _ in expected
                ]
                for (_, result), (_, reference_result) in zip(family, expected):
                    assert np.array_equal(result.times, reference_result.times)
                    assert np.array_equal(result.values, reference_result.values)
        assert pairs == 12
        assert [sweeps for _, sweeps, _, _ in runs] == [64, 64, 64]
        assert [flushes for _, _, flushes, _ in runs] == [16, 16, 2 * pairs]
        totals = [
            {
                name: check_exposition(metrics)[name][1][name, ()]
                for name in (
                    "repro_service_requests_total",
                    "repro_service_sweeps_total",
                    "repro_service_matvecs_total",
                )
            }
            for *_, metrics in runs
        ]
        assert totals[0] == totals[1] == totals[2]


# ---------------------------------------------------------------------------
# each (family, points) is expanded and pickled once, on every front
# ---------------------------------------------------------------------------
class _ExpandingFront(ScenarioService):
    """An in-process front whose every ``submit_scenario`` expands afresh."""

    async def submit_scenario(self, name, points=None, timeout=None):
        requests = self.registry.get(name).expand(points=points)
        results = await self.submit_many(requests, timeout=timeout)
        return list(zip(requests, results))


class _CountingPickle:
    """``repro.service.shard``'s ``pickle``, counting the requests it pickles."""

    def __init__(self) -> None:
        self.requests = 0

    def dumps(self, obj, *args, **kwargs):
        self.requests += isinstance(obj, MeasureRequest)
        return pickle.dumps(obj, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(pickle, name)


async def post_body(server: ScenarioHTTPServer, name: str, points=None) -> bytes:
    """The body ``POST /scenario`` answers for ``name`` (a 200 is required)."""
    body = {"name": name} if points is None else {"name": name, "points": points}
    status, _, data = await server._post_scenario(json.dumps(body).encode())
    assert status == 200
    return data


FRONTS = {
    "in-process": lambda: ScenarioService(lump=True),
    "1-shard": lambda: ShardedScenarioService(1, lump=True),
    "2-shard": lambda: ShardedScenarioService(NUM_SHARDS, lump=True),
}


class TestExpandOnce:
    def test_a_warm_pass_expands_and_pickles_nothing(self, expansions, monkeypatch):
        # Two sequential passes of the 8 families, at the registry grids and
        # at 9 points: every (family, points) is expanded once and its
        # requests are pickled once, and every body equals the one a front
        # that expands every time answers.
        registry = paper_registry()
        grids = (None, 9)
        counting = _CountingPickle()
        monkeypatch.setattr(shard, "pickle", counting)

        async def reference():
            async with _ExpandingFront(lump=True) as service:
                server = ScenarioHTTPServer(service)
                return {
                    (points, name): await post_body(server, name, points)
                    for points in grids
                    for name in registry.names
                }

        async def two_passes(make_front):
            pickled = []
            async with make_front() as service:
                server = ScenarioHTTPServer(service)
                bodies = []
                for _ in range(2):
                    before = counting.requests
                    bodies.append({
                        (points, name): await post_body(server, name, points)
                        for points in grids
                        for name in registry.names
                    })
                    pickled.append(counting.requests - before)
            return bodies, pickled

        expected = asyncio.run(reference())
        requests = sum(len(registry.expand(name)) for name in registry.names)
        for label, make_front in FRONTS.items():
            expansions.clear()
            bodies, pickled = asyncio.run(two_passes(make_front))
            assert expansions == {
                (name, points): 1 for points in grids for name in registry.names
            }, label
            assert pickled == ([0, 0] if label == "in-process" else [2 * requests, 0])
            assert bodies == [expected, expected], label

    @pytest.mark.parametrize("label", ["in-process", "2-shard"])
    def test_concurrent_posts_share_one_expansion(self, expansions, label):
        async def run():
            async with FRONTS[label]() as service:
                server = ScenarioHTTPServer(service)
                cold = await asyncio.gather(
                    post_body(server, "fig8_9", 5), post_body(server, "fig8_9", 5)
                )
                if label != "in-process":
                    service._expander.shutdown()  # a hit takes no executor hop
                warm = await asyncio.gather(
                    post_body(server, "fig8_9", 5), post_body(server, "fig8_9", 5)
                )
                metrics = service.metrics_records()
                if label != "in-process":
                    metrics = await metrics
            return cold + warm, metrics

        bodies, records = asyncio.run(run())
        assert len(set(bodies)) == 1
        assert expansions == {("fig8_9", 5): 1}
        (cache,) = [record for record in records if isinstance(record, CacheStats)]
        scenario = cache.kind("scenario")
        assert (scenario.misses, scenario.hits) == (1, 3)


# ---------------------------------------------------------------------------
# the worker loop, driven in-process through plain queues
# ---------------------------------------------------------------------------
class TestWorkerLoop:
    @pytest.mark.parametrize(
        "chaos", [None, ChaosEvent("drop", 0, 2)], ids=["plain", "drop-2"]
    )
    def test_a_requests_batch_plans_as_one_flush_on_one_thread(self, chaos):
        chain = chain_owned_by(0)
        requests = [
            reachability_request(chain, times)
            for times in ((0.5,), (1.0, 2.0), (0.25, 4.0), (3.0,))
        ]
        expected = single_process_values(requests)
        ids = [100 + position for position in range(len(requests))]
        dropped = {ids[1]} if chaos is not None else set()
        inbox: queue.Queue = queue.Queue()
        outbox: queue.Queue = queue.Queue()
        config = {
            "coalesce_window": DEFAULT_COALESCE_WINDOW,
            "max_batch": DEFAULT_MAX_BATCH,
            "lump": False,
            "epsilon": DEFAULT_EPSILON,
            "max_entries": DEFAULT_MAX_ENTRIES,
            "chaos": ChaosPolicy([chaos] if chaos is not None else []),
        }
        worker = threading.Thread(
            target=_shard_worker_main, args=(0, inbox, outbox, config), daemon=True
        )
        worker.start()
        try:
            assert outbox.get(timeout=30) == ("pong", -1)
            inbox.put(("chain", chain.content_key, pickle.dumps(chain)))
            inbox.put(
                ("requests", [
                    (request_id, _request_payload(request))
                    for request_id, request in zip(ids, requests)
                ])
            )
            results = {}
            while len(results) < len(requests) - len(dropped):
                kind, request_id, body = outbox.get(timeout=30)
                assert kind == "result"
                results[request_id] = pickle.loads(body)
            inbox.put(("stats", 7))
            kind, probe, snapshot = outbox.get(timeout=30)
        finally:
            inbox.put(("shutdown",))
            worker.join(timeout=30)
        assert not worker.is_alive()
        assert outbox.empty()  # a dropped response never arrives
        assert (kind, probe) == ("stats", 7)
        assert set(results) == set(ids) - dropped
        for request_id, values in zip(ids, expected):
            if request_id in results:
                assert np.array_equal(results[request_id]["values"], values)
        service, _cache, fingerprints, threads = pickle.loads(snapshot)
        assert service.flushes == 1
        assert service.completed == len(requests)
        assert chain.fingerprint in fingerprints
        assert threads["pool_max_workers"] == 1


# ---------------------------------------------------------------------------
# routing
# ---------------------------------------------------------------------------
class TestRouting:
    def test_routing_is_deterministic_and_identity_free(self):
        chain = random_chain(6, seed=3)
        rebuilt = random_chain(6, seed=3)
        assert chain is not rebuilt
        assert shard_for_fingerprint(
            chain.fingerprint, NUM_SHARDS
        ) == shard_for_fingerprint(rebuilt.fingerprint, NUM_SHARDS)
        for shards in (1, 2, 3, 7):
            assert 0 <= shard_for_fingerprint(chain.fingerprint, shards) < shards

    def test_single_shard_front_works(self):
        chain = random_chain(5, seed=11)

        async def run():
            async with ShardedScenarioService(1, coalesce_window=0.0) as sharded:
                return await sharded.submit(reachability_request(chain))

        result = asyncio.run(run())
        assert result.values.shape == (1, 3)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            ShardedScenarioService(0)
        with pytest.raises(ValueError):
            ShardedScenarioService(2, max_pending=0)
        with pytest.raises(ValueError):
            ShardedScenarioService(2, default_timeout=0.0)
        with pytest.raises(ValueError):
            ShardedScenarioService(2, heartbeat_interval=-1.0)
        with pytest.raises(ValueError):
            ShardedScenarioService(2, heartbeat_timeout=0.0)
        with pytest.raises(ValueError):
            ShardedScenarioService(2, restart_limit=-1)
        with pytest.raises(ValueError):
            ShardedScenarioService(2, retry_limit=-1)
        with pytest.raises(ValueError):
            ShardedScenarioService(2, restart_window=0.0)
        with pytest.raises(ValueError):
            ShardedScenarioService(2, backoff_base=0.0)
        with pytest.raises(ValueError):
            ShardedScenarioService(2, shutdown_grace=0.0)
        with pytest.raises(ValueError):
            ShardedScenarioService(2, snapshot_timeout=0.0)
        with pytest.raises(TypeError):
            ShardedScenarioService(2, chaos="kill shard 0")

    def test_supervision_knobs_stored(self):
        service = ShardedScenarioService(
            2,
            heartbeat_interval=0.5,
            restart_limit=5,
            retry_limit=1,
            shutdown_grace=3.0,
            snapshot_timeout=7.0,
        )
        assert service.heartbeat_interval == 0.5
        # The derived default never drops below the 30s floor: a tight
        # timeout would kill healthy-but-GIL-starved workers.
        assert service.heartbeat_timeout == 30.0
        assert (
            ShardedScenarioService(2, heartbeat_interval=10.0).heartbeat_timeout
            == 50.0
        )
        assert service.restart_limit == 5
        assert service.retry_limit == 1
        assert service.shutdown_grace == 3.0
        assert service.snapshot_timeout == 7.0
        # 0 disables the heartbeat entirely.
        assert ShardedScenarioService(2, heartbeat_interval=0).heartbeat_interval is None


# ---------------------------------------------------------------------------
# failure isolation
# ---------------------------------------------------------------------------
class TestFailureIsolation:
    def test_poisoned_request_fails_only_its_own_future(self):
        healthy = chain_owned_by(0)
        poisoned = MeasureRequest(
            chain=chain_owned_by(1),
            times=(1.0,),
            kind=MeasureKind.REACHABILITY,
            target=None,  # validation failure inside the worker
        )

        async def run():
            async with ShardedScenarioService(
                NUM_SHARDS, coalesce_window=0.0
            ) as sharded:
                good, bad = await asyncio.gather(
                    sharded.submit(reachability_request(healthy)),
                    sharded.submit(poisoned),
                    return_exceptions=True,
                )
                return good, bad, sharded.stats

        good, bad, stats = asyncio.run(run())
        assert not isinstance(good, BaseException)
        assert isinstance(bad, Exception)
        assert "target" in str(bad)
        assert stats.completed == 1 and stats.failed == 1

    def test_killed_shard_fails_inflight_but_others_keep_serving(self):
        # Supervision off (restart_limit=0, retry_limit=0, failover=False)
        # restores the original fail-fast contract: a dead shard fails its
        # in-flight callers and rejects new traffic immediately.
        # ~seconds of queued work on the victim shard: the kill lands while
        # requests are provably in flight.
        victim_chains = [
            chain_owned_by(0, num_states=30, rate_scale=50.0) for _ in range(8)
        ]
        survivor_chain = chain_owned_by(1)
        times = np.linspace(0.0, 40.0, 31)

        async def run():
            async with ShardedScenarioService(
                NUM_SHARDS,
                coalesce_window=0.0,
                restart_limit=0,
                retry_limit=0,
                failover=False,
                heartbeat_interval=None,
            ) as sharded:
                inflight = [
                    asyncio.ensure_future(
                        sharded.submit(reachability_request(chain, times))
                    )
                    for chain in victim_chains
                ]
                await asyncio.sleep(0.05)
                sharded._shards[0].process.kill()
                outcomes = await asyncio.gather(*inflight, return_exceptions=True)

                # The surviving shard serves on, before and after new traffic.
                survivor = await sharded.submit(reachability_request(survivor_chain))
                # The dead shard rejects fast instead of hanging.
                with pytest.raises(ShardCrashed):
                    await sharded.submit(reachability_request(victim_chains[0]))
                snapshots = await sharded.shard_snapshots()
                return outcomes, survivor, snapshots

        outcomes, survivor, snapshots = asyncio.run(run())
        crashed = [o for o in outcomes if isinstance(o, ShardCrashed)]
        finished = [o for o in outcomes if not isinstance(o, BaseException)]
        assert len(crashed) + len(finished) == len(outcomes)
        assert crashed, "the kill must catch at least one request in flight"
        assert survivor.values.shape == (1, 3)
        alive = {snapshot.index: snapshot.alive for snapshot in snapshots}
        assert alive == {0: False, 1: True}

    def test_submit_after_close_raises(self):
        chain = random_chain(5, seed=23)

        async def run():
            sharded = ShardedScenarioService(1, coalesce_window=0.0)
            async with sharded:
                await sharded.submit(reachability_request(chain))
            with pytest.raises(ServiceClosed):
                await sharded.submit(reachability_request(chain))

        asyncio.run(run())


# ---------------------------------------------------------------------------
# backpressure and deadlines on the sharded front
# ---------------------------------------------------------------------------
class TestShardedBackpressure:
    def test_queue_full_rejects_without_poisoning_inflight(self):
        chains = [chain_owned_by(index % NUM_SHARDS) for index in range(2)]
        overflow_chain = chain_owned_by(0)

        async def run():
            async with ShardedScenarioService(
                NUM_SHARDS, coalesce_window=0.0, max_pending=2
            ) as sharded:
                inflight = [
                    asyncio.ensure_future(
                        sharded.submit(reachability_request(chain))
                    )
                    for chain in chains
                ]
                for _ in range(500):  # wait until both submissions are in flight
                    if sharded._inflight_count() >= 2:
                        break
                    await asyncio.sleep(0.01)
                with pytest.raises(QueueFull):
                    await sharded.submit(reachability_request(overflow_chain))
                # A batch is rejected request by request: both count.
                with pytest.raises(QueueFull):
                    await sharded.submit_many(
                        [reachability_request(overflow_chain)] * 2
                    )
                results = await asyncio.gather(*inflight)
                # Capacity freed: the rejected request succeeds on retry.
                retry = await sharded.submit(reachability_request(overflow_chain))
                return results, retry, sharded.stats

        results, retry, stats = asyncio.run(run())
        assert len(results) == 2 and retry.values.shape == (1, 3)
        assert stats.rejected == 3
        assert stats.completed == 3

    def test_timeout_cancels_only_its_own_future(self):
        slow_chain = chain_owned_by(0, num_states=30, rate_scale=50.0)
        fast_chain = chain_owned_by(1)
        times = np.linspace(0.0, 40.0, 31)

        async def run():
            async with ShardedScenarioService(
                NUM_SHARDS, coalesce_window=0.0
            ) as sharded:
                slow = sharded.submit(
                    reachability_request(slow_chain, times), timeout=0.01
                )
                fast = sharded.submit(reachability_request(fast_chain))
                timed_out, result = await asyncio.gather(
                    slow, fast, return_exceptions=True
                )
                return timed_out, result, sharded.stats

        timed_out, result, stats = asyncio.run(run())
        assert isinstance(timed_out, ScenarioTimeout)
        assert not isinstance(result, BaseException)
        assert stats.timeouts == 1
        assert stats.completed >= 1


# ---------------------------------------------------------------------------
# content-addressed chain transport
# ---------------------------------------------------------------------------
class TestChainTransport:
    def test_chains_sharing_a_rate_matrix_keep_their_own_values(self):
        # One fingerprint (so one shard), three content keys: each chain is
        # uploaded under its own key and answers with its own initial
        # distribution (initial_distributions=None) and "target" label.
        chain = random_chain(6, seed=31)
        variants = [
            chain,
            chain.with_initial_distribution({2: 1.0}),
            chain.restrict_labels(target=[0, 1]),
        ]
        requests = [reachability_request(variant) for variant in variants]
        expected = single_process_values(requests)

        async def run():
            async with ShardedScenarioService(
                1, coalesce_window=0.0, heartbeat_interval=None
            ) as sharded:
                first = await sharded.submit_many(list(requests))
                uploads = sharded.stats.chain_uploads
                sent = sharded.stats.request_bytes
                repeat = await sharded.submit_many(list(requests))
                text = await sharded.metrics_text()
                return first, repeat, uploads, sent, text, sharded.stats

        first, repeat, uploads, sent, text, stats = asyncio.run(run())
        for results in (first, repeat):
            for result, values in zip(results, expected):
                np.testing.assert_allclose(result.values, values, rtol=0.0, atol=1e-12)
        assert not np.allclose(expected[0], expected[1])
        assert not np.allclose(expected[0], expected[2])
        # One upload per content key; the repeat submission uploads nothing
        # and sends the same request bytes again.
        assert uploads == len(variants)
        assert stats.chain_uploads == len(variants) and stats.chain_bytes > 0
        assert stats.request_bytes == 2 * sent
        lines = text.splitlines()
        assert f"repro_front_chain_uploads_total {len(variants)}" in lines
        assert f"repro_front_request_bytes_total {2 * sent}" in lines

    def test_mostly_zero_initials_travel_as_their_entries(self):
        # A point mass, a block holding a -0.0 and a dense vector each reach
        # the worker bit-identical; the first two travel as their entries.
        chain = chain_owned_by(0)
        point = np.zeros(chain.num_states)
        point[2] = 1.0
        block = np.zeros((2, chain.num_states))
        block[0, [1, 3]] = [-0.0, 1.0]
        block[1, [4, 5]] = 0.5
        uniform = np.full(chain.num_states, 1.0 / chain.num_states)
        requests = [
            replace(reachability_request(chain), initial_distributions=initial)
            for initial in (point, block, uniform)
        ]
        wire = [pickle.loads(_request_payload(request)) for request in requests]
        assert isinstance(wire[0].initial_distributions, _SparseVectors)
        assert isinstance(wire[1].initial_distributions, _SparseVectors)
        assert wire[1].initial_distributions.dense().tobytes() == block.tobytes()
        assert isinstance(wire[2].initial_distributions, np.ndarray)
        assert np.array_equal(wire[2].initial_distributions, uniform)
        # One at a time on both sides, so each runs as its own sweep.
        expected = [single_process_values([request])[0] for request in requests]

        async def run():
            async with ShardedScenarioService(
                1, coalesce_window=0.0, heartbeat_interval=None
            ) as sharded:
                return [await sharded.submit(request) for request in requests]

        for result, values in zip(asyncio.run(run()), expected):
            assert np.array_equal(result.values, values)
        # A Line 1 disaster request starts from a point mass on 33,280
        # states: its wire form (mostly the target mask) is not 266 KB larger.
        line1 = next(
            request
            for request in paper_registry().expand("fig4_5", points=3)
            if request.initial_distributions is not None
            and request.chain.num_states > 30_000
        )
        dense = np.asarray(line1.initial_distributions)
        assert len(_request_payload(line1)) < dense.nbytes / 5

    def test_duplicated_clients_cost_single_process_sweeps(self):
        # Four clients send the same four Fig. 8/9 requests at once.  The
        # worker holds one chain per content key and plans by fingerprint,
        # so the 16 submissions cost the 4 sweeps of one process.
        requests = paper_registry().expand("fig8_9", points=PORTFOLIO_POINTS)[:4]
        window = 1.0  # every client's submissions land in one flush

        async def clients(service):
            await asyncio.gather(
                *(service.submit_many(list(requests)) for _ in range(4))
            )

        async def single():
            async with ScenarioService(
                artifacts=ArtifactCache(), coalesce_window=window
            ) as service:
                await clients(service)
                return service.stats.session.sweeps

        async def sharded():
            async with ShardedScenarioService(
                1, coalesce_window=window, heartbeat_interval=None
            ) as front:
                await clients(front)
                (snapshot,) = await front.shard_snapshots()
                return snapshot.service.session.sweeps, front.stats.chain_uploads

        single_sweeps = asyncio.run(single())
        sharded_sweeps, uploads = asyncio.run(sharded())
        assert single_sweeps == 4
        assert sharded_sweeps == single_sweeps
        assert uploads == 4

    def test_unpicklable_request_fails_alone_in_its_batch(self):
        chain = chain_owned_by(0)
        unpicklable = replace(reachability_request(chain), tag=Unpicklable())
        batch = [reachability_request(chain), unpicklable, reachability_request(chain)]

        async def run():
            async with ShardedScenarioService(
                NUM_SHARDS, heartbeat_interval=None
            ) as sharded:
                with pytest.raises(TypeError, match="cannot be pickled"):
                    await sharded.submit_many(batch)
                return sharded.stats

        stats = asyncio.run(run())
        # Its siblings were sent and completed before the error was raised.
        assert stats.submissions == 2 and stats.completed == 2
        assert stats.failed == 0

    def test_unsendable_chain_fails_only_its_own_submission(self):
        healthy = chain_owned_by(0)
        unsendable = CTMC(
            healthy.rate_matrix,
            {0: 1.0},
            labels={"target": [healthy.num_states - 1]},
        )
        unsendable.payload = Unpicklable()

        async def run():
            async with ShardedScenarioService(
                NUM_SHARDS, coalesce_window=0.0
            ) as sharded:
                with pytest.raises(TypeError, match="cannot be pickled"):
                    await sharded.submit(reachability_request(unsendable))
                good = await sharded.submit(reachability_request(healthy))
                return good, sharded.stats

        good, stats = asyncio.run(run())
        assert good.values.shape == (1, 3)
        assert stats.failed == 1 and stats.completed == 1
        assert stats.chain_uploads == 1
