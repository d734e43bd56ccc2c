"""Chaos tests for the self-healing shard supervision layer.

Every fault here is injected deterministically through
:class:`repro.service.ChaosPolicy` (seeded via ``REPRO_CHAOS_SEED`` in CI)
or by killing worker processes directly, and every recovery claim of
``repro.service.shard`` is asserted end to end:

* a killed worker's in-flight requests retry transparently (failover to
  the surviving shard, or parked until the supervisor respawns the worker);
* a wedged-but-alive worker is caught by the heartbeat timeout, killed and
  restarted;
* the restart budget circuit-breaks a crash-looping shard, after which
  callers fail fast (and are counted in ``routed_dead``);
* a corrupted response payload fails exactly its own request;
* a dropped response is recovered only by its caller's own deadline;
* a worker that dies after receiving a chain takes the chain with it: the
  retry sends the chain again to the incarnation or shard that serves it;
* ``/metrics`` counters never go backwards when a worker dies: the front
  banks each dead incarnation's last snapshot.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from helpers import check_exposition
from repro.analysis import MeasureKind, MeasureRequest
from repro.ctmc import CTMC
from repro.service import (
    ChaosEvent,
    ChaosPolicy,
    ScenarioTimeout,
    ShardCrashed,
    ShardedScenarioService,
    chaos_seed,
    shard_for_fingerprint,
)
from repro.service.chaos import CHAOS_SEED_ENV
from repro.service.shard import (
    STATE_BROKEN,
    STATE_RESTARTING,
    STATE_UP,
    _Shard,
    ShardedScenarioService as _Front,
)

NUM_SHARDS = 2

#: Supervision tuning shared by the recovery tests: fast respawns, a retry
#: budget generous enough that an aggressive heartbeat never fails a caller.
FAST_SUPERVISION = dict(
    coalesce_window=0.0,
    backoff_base=0.1,
    backoff_cap=0.5,
    retry_limit=4,
    restart_limit=4,
)


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


def chain_owned_by(shard: int, num_states: int = 6) -> CTMC:
    for seed in range(1000):
        chain = random_chain(num_states, seed=7000 + seed)
        if shard_for_fingerprint(chain.fingerprint, NUM_SHARDS) == shard:
            return chain
    raise AssertionError("no seed routed to the requested shard")  # pragma: no cover


def reachability_request(chain: CTMC, times=(0.5, 1.0, 2.0)) -> MeasureRequest:
    return MeasureRequest(
        chain=chain, times=times, kind=MeasureKind.REACHABILITY, target="target"
    )


async def wait_until(predicate, timeout: float = 30.0, interval: float = 0.05):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition not reached within the deadline")
        await asyncio.sleep(interval)


# ---------------------------------------------------------------------------
# the deterministic schedule itself
# ---------------------------------------------------------------------------
class TestChaosPolicy:
    def test_from_seed_is_deterministic_and_covers_every_shard(self):
        seed = chaos_seed()
        first = ChaosPolicy.from_seed(seed, 4)
        again = ChaosPolicy.from_seed(seed, 4)
        assert first == again
        assert {event.shard for event in first.events} == {0, 1, 2, 3}
        actions = [event.action for event in first.events]
        assert actions.count("wedge") == 1
        assert actions.count("kill") == 3
        assert all(event.generation == 0 for event in first.events)
        assert ChaosPolicy.from_seed(seed + 1, 4) != first

    def test_seed_env_override(self, monkeypatch):
        monkeypatch.setenv(CHAOS_SEED_ENV, "424242")
        assert chaos_seed() == 424242
        monkeypatch.delenv(CHAOS_SEED_ENV)
        assert chaos_seed(default=7) == 7

    def test_script_keys_on_shard_and_generation(self):
        policy = ChaosPolicy(
            [
                ChaosEvent("kill", 0, 3),
                ChaosEvent("corrupt", 0, 5, generation=1),
                ChaosEvent("drop", 1, 2),
            ]
        )
        assert set(policy.script_for(0, 0)) == {3}
        assert set(policy.script_for(0, 1)) == {5}
        assert set(policy.script_for(1, 0)) == {2}
        assert policy.script_for(2, 0) == {}

    def test_validation(self):
        with pytest.raises(ValueError):
            ChaosEvent("explode", 0, 1)
        with pytest.raises(ValueError):
            ChaosEvent("kill", 0, 0)  # at_message is 1-based
        with pytest.raises(ValueError):
            ChaosEvent("kill", -1, 1)
        with pytest.raises(ValueError):
            ChaosPolicy([ChaosEvent("kill", 0, 1), ChaosEvent("drop", 0, 1)])
        with pytest.raises(ValueError):
            ChaosPolicy.from_seed(1, 0)

    def test_describe_round_trips_the_schedule(self):
        policy = ChaosPolicy.from_seed(9, 2)
        described = policy.describe()
        assert len(described) == 2
        assert {entry["action"] for entry in described} <= {"kill", "wedge"}


# ---------------------------------------------------------------------------
# crash recovery: transparent retry, failover, parking
# ---------------------------------------------------------------------------
class TestCrashRecovery:
    def test_chaos_kill_is_transparent_with_failover(self):
        # Shard 0 dies on its second request; its in-flight work fails over
        # to shard 1 (or retries on the respawned worker) and every caller
        # still gets a correct answer.
        chains = [chain_owned_by(0) for _ in range(4)]
        chaos = ChaosPolicy([ChaosEvent("kill", 0, 2)])

        async def run():
            async with ShardedScenarioService(
                NUM_SHARDS, chaos=chaos, **FAST_SUPERVISION
            ) as sharded:
                results = await sharded.submit_many(
                    [reachability_request(chain) for chain in chains]
                )
                await wait_until(lambda: sharded._shards[0].state == STATE_UP)
                return results, sharded.stats

        results, stats = asyncio.run(run())
        assert len(results) == 4
        assert all(result.values.shape == (1, 3) for result in results)
        assert stats.completed == 4 and stats.failed == 0
        assert stats.retries >= 1
        assert sum(stats.restarts.values()) >= 1

    def test_parked_requests_survive_restart_without_failover(self):
        # failover=False: work for the dead shard parks until the
        # supervisor respawns it, then completes on the new incarnation.
        chains = [chain_owned_by(0) for _ in range(3)]
        chaos = ChaosPolicy([ChaosEvent("kill", 0, 2)])

        async def run():
            async with ShardedScenarioService(
                NUM_SHARDS, chaos=chaos, failover=False, **FAST_SUPERVISION
            ) as sharded:
                results = await sharded.submit_many(
                    [reachability_request(chain) for chain in chains]
                )
                return results, sharded.stats, sharded._shards[0].generation

        results, stats, generation = asyncio.run(run())
        assert len(results) == 3
        assert stats.completed == 3 and stats.failed == 0
        assert sum(stats.failovers.values()) == 0
        assert sum(stats.restarts.values()) >= 1
        assert generation >= 1

    def test_retry_budget_exhaustion_surfaces_shard_crashed(self):
        # retry_limit=0 and restart_limit=0: the original fail-fast
        # behaviour, now with the routed_dead counter on the reject path.
        victim = chain_owned_by(0, num_states=30)
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
                inflight = asyncio.ensure_future(
                    sharded.submit(reachability_request(victim, times))
                )
                await asyncio.sleep(0.05)
                sharded._shards[0].process.kill()
                outcome = await asyncio.gather(inflight, return_exceptions=True)
                with pytest.raises(ShardCrashed):
                    await sharded.submit(reachability_request(victim))
                return outcome[0], sharded.stats, sharded._shards[0].state

        outcome, stats, state = asyncio.run(run())
        assert isinstance(outcome, ShardCrashed)
        assert state == STATE_BROKEN
        assert stats.routed_dead == 1
        assert stats.failed >= 2  # the in-flight failure and the fast reject
        assert stats.retries == 0


    @pytest.mark.parametrize("failover", [False, True])
    def test_retry_after_kill_resends_the_chain(self, failover):
        # Request 1 uploads the chain to shard 0; shard 0 dies on request 2.
        # The retry runs on the respawned incarnation (or, with failover, on
        # shard 1), which does not hold the chain, so the chain goes again.
        chain = chain_owned_by(0)
        chaos = ChaosPolicy([ChaosEvent("kill", 0, 2)])

        async def run():
            async with ShardedScenarioService(
                NUM_SHARDS, chaos=chaos, failover=failover, **FAST_SUPERVISION
            ) as sharded:
                first = await sharded.submit(reachability_request(chain))
                before = (sharded.stats.chain_uploads, sharded.stats.retries)
                second = await sharded.submit(reachability_request(chain))
                return first, second, before, sharded.stats, sharded._shards[0]

        first, second, before, stats, shard = asyncio.run(run())
        np.testing.assert_allclose(first.values, second.values, rtol=0.0, atol=1e-12)
        # Chain messages do not advance the chaos schedule: request 1 (the
        # second message) ran untouched.
        assert before == (1, 0)
        assert stats.retries == 1 and stats.failed == 0
        assert stats.chain_uploads == 2
        if failover:
            assert stats.failovers == {0: 1}
            assert stats.routed[1] == 1
        else:
            assert shard.generation == 1
            assert sum(stats.failovers.values()) == 0


# ---------------------------------------------------------------------------
# /metrics across a worker restart
# ---------------------------------------------------------------------------
def lifetime_counters(text: str) -> dict:
    """Every ``repro_service_*_total`` and ``repro_cache_*_total`` sample."""
    return {
        sample: value
        for family, (kind, samples) in check_exposition(text).items()
        if kind == "counter" and family.startswith(("repro_service_", "repro_cache_"))
        for sample, value in samples.items()
    }


class TestMetricsAcrossRestarts:
    def test_counters_survive_a_killed_worker(self):
        async def run():
            async with ShardedScenarioService(
                NUM_SHARDS,
                heartbeat_interval=None,
                **{**FAST_SUPERVISION, "backoff_base": 1.0, "backoff_cap": 1.0},
            ) as sharded:
                await sharded.submit_scenario("fig3", points=5)
                before = lifetime_counters(await sharded.metrics_text())
                (served,) = [
                    index for index, count in sharded.stats.routed.items() if count
                ]
                shard = sharded._shards[served]
                shard.process.kill()
                await wait_until(lambda: shard.state == STATE_RESTARTING)
                down = lifetime_counters(await sharded.metrics_text())
                await wait_until(lambda: shard.state == STATE_UP and shard.generation == 1)
                respawned = lifetime_counters(await sharded.metrics_text())
                return before, down, respawned

        before, down, respawned = asyncio.run(run())
        assert before[("repro_service_requests_total", ())] == 2
        for after in (down, respawned):
            assert set(before) <= set(after)
            assert all(after[sample] >= value for sample, value in before.items())
        assert respawned[("repro_service_requests_total", ())] == 2


# ---------------------------------------------------------------------------
# wedge detection via heartbeat
# ---------------------------------------------------------------------------
class TestWedgeDetection:
    def test_wedged_worker_is_killed_and_restarted(self):
        chain = chain_owned_by(0)
        chaos = ChaosPolicy([ChaosEvent("wedge", 0, 2, delay=3600.0)])

        async def run():
            async with ShardedScenarioService(
                NUM_SHARDS,
                chaos=chaos,
                heartbeat_interval=0.1,
                heartbeat_timeout=1.0,
                **FAST_SUPERVISION,
            ) as sharded:
                # Wait out boot so the wedge (not BOOT_GRACE) governs.
                await wait_until(lambda: sharded._shards[0].ready)
                first = await sharded.submit(reachability_request(chain))
                # Request 2 wedges the worker; the heartbeat must catch it.
                second = await sharded.submit(reachability_request(chain))
                # The retry may have completed via failover before the
                # respawn finishes; wait for the supervisor to catch up.
                await wait_until(
                    lambda: sum(sharded.stats.restarts.values()) >= 1
                )
                return first, second, sharded.stats

        first, second, stats = asyncio.run(run())
        np.testing.assert_allclose(first.values, second.values)
        assert sum(stats.heartbeat_misses.values()) >= 1
        assert sum(stats.restarts.values()) >= 1
        assert stats.failed == 0


# ---------------------------------------------------------------------------
# circuit breaker
# ---------------------------------------------------------------------------
class TestCircuitBreaker:
    def test_crash_loop_breaks_the_circuit_and_fails_over(self):
        # The shard dies on generation 0 *and* generation 1 with
        # restart_limit=1: the second death must circuit-break it, and new
        # traffic for its chains must fail over to the survivor.
        chain = chain_owned_by(0)
        chaos = ChaosPolicy(
            [
                ChaosEvent("kill", 0, 1),
                ChaosEvent("kill", 0, 1, generation=1),
            ]
        )

        async def run():
            async with ShardedScenarioService(
                NUM_SHARDS,
                chaos=chaos,
                coalesce_window=0.0,
                backoff_base=0.1,
                backoff_cap=0.5,
                restart_limit=1,
                retry_limit=4,
            ) as sharded:
                results = [await sharded.submit(reachability_request(chain))]
                # Wait for the generation-1 respawn before resubmitting, so
                # the second request provably routes to (and kills) it
                # instead of failing over while the shard is restarting.
                await wait_until(
                    lambda: sharded._shards[0].state == STATE_UP
                    and sharded._shards[0].generation == 1
                )
                results.append(await sharded.submit(reachability_request(chain)))
                await wait_until(
                    lambda: sharded._shards[0].state == STATE_BROKEN
                )
                after = await sharded.submit(reachability_request(chain))
                snapshots = await sharded.shard_snapshots(timeout=10.0)
                return results, after, snapshots, sharded.stats

        results, after, snapshots, stats = asyncio.run(run())
        assert all(result.values.shape == (1, 3) for result in results + [after])
        broken = {snapshot.index: snapshot for snapshot in snapshots}[0]
        assert broken.state == STATE_BROKEN and not broken.alive
        assert broken.restarts == 1  # the budget allowed exactly one respawn
        assert sum(stats.failovers.values()) >= 1
        assert stats.failed == 0

    def test_broken_shard_without_failover_rejects_fast(self):
        chain = chain_owned_by(0)
        chaos = ChaosPolicy([ChaosEvent("kill", 0, 1)])

        async def run():
            async with ShardedScenarioService(
                NUM_SHARDS,
                chaos=chaos,
                coalesce_window=0.0,
                restart_limit=0,
                retry_limit=0,
                failover=False,
                heartbeat_interval=None,
            ) as sharded:
                with pytest.raises(ShardCrashed):
                    await sharded.submit(reachability_request(chain))
                await wait_until(
                    lambda: sharded._shards[0].state == STATE_BROKEN
                )
                with pytest.raises(ShardCrashed, match="cannot be served"):
                    await sharded.submit(reachability_request(chain))
                return sharded.stats

        stats = asyncio.run(run())
        assert stats.routed_dead >= 1
        assert stats.failed >= 2


# ---------------------------------------------------------------------------
# response-plane faults: corrupt, delay, drop
# ---------------------------------------------------------------------------
class TestResponseFaults:
    def test_corrupt_response_fails_only_its_own_request(self):
        # An undecodable payload must fail exactly its own caller with the
        # "undecodable shard response" error — and must not wedge the
        # reader thread: the next request on the same shard succeeds.
        chain = chain_owned_by(0)
        chaos = ChaosPolicy([ChaosEvent("corrupt", 0, 2)])

        async def run():
            async with ShardedScenarioService(
                NUM_SHARDS, chaos=chaos, coalesce_window=0.0
            ) as sharded:
                first = await sharded.submit(reachability_request(chain))
                with pytest.raises(RuntimeError, match="undecodable shard"):
                    await sharded.submit(reachability_request(chain))
                third = await sharded.submit(reachability_request(chain))
                return first, third, sharded.stats

        first, third, stats = asyncio.run(run())
        np.testing.assert_allclose(first.values, third.values)
        assert stats.completed == 2 and stats.failed == 1
        assert stats.retries == 0  # a decode failure is not a worker death
        assert sum(stats.restarts.values()) == 0

    def test_dropped_response_times_out_alone(self):
        chain = chain_owned_by(0)
        chaos = ChaosPolicy([ChaosEvent("drop", 0, 1)])

        async def run():
            async with ShardedScenarioService(
                NUM_SHARDS, chaos=chaos, coalesce_window=0.0
            ) as sharded:
                with pytest.raises(ScenarioTimeout):
                    await sharded.submit(reachability_request(chain), timeout=1.0)
                follow_up = await sharded.submit(reachability_request(chain))
                return follow_up, sharded.stats

        follow_up, stats = asyncio.run(run())
        assert follow_up.values.shape == (1, 3)
        assert stats.timeouts == 1 and stats.completed == 1

    def test_delayed_response_still_arrives(self):
        chain = chain_owned_by(0)
        chaos = ChaosPolicy([ChaosEvent("delay", 0, 1, delay=0.3)])

        async def run():
            async with ShardedScenarioService(
                NUM_SHARDS, chaos=chaos, coalesce_window=0.0
            ) as sharded:
                result = await sharded.submit(reachability_request(chain))
                return result, sharded.stats

        result, stats = asyncio.run(run())
        assert result.values.shape == (1, 3)
        assert stats.completed == 1 and stats.timeouts == 0


# ---------------------------------------------------------------------------
# the defensive decode path, exercised without any processes
# ---------------------------------------------------------------------------
class TestDecodeResponse:
    def _stub_shard(self):
        return _Shard(index=3, process=None, requests=None, responses=None)

    def test_undecodable_result_becomes_an_error_message(self):
        shard = self._stub_shard()
        kind, request_id, error, text = _Front._decode_response(
            shard, ("result", 17, b"\xff\xfe not a pickle")
        )
        assert (kind, request_id, error) == ("error", 17, None)
        assert "undecodable shard 3 response" in text

    def test_unpicklable_error_payload_degrades_to_text(self):
        shard = self._stub_shard()
        kind, request_id, error, text = _Front._decode_response(
            shard, ("error", 5, None, "ValueError: original message")
        )
        assert (kind, request_id, error) == ("error", 5, None)
        assert text == "ValueError: original message"

    def test_healthy_payloads_pass_through(self):
        import pickle

        shard = self._stub_shard()
        kind, request_id, payload = _Front._decode_response(
            shard, ("result", 1, pickle.dumps({"values": [1.0]}))
        )
        assert (kind, request_id) == ("result", 1)
        assert payload == {"values": [1.0]}


# ---------------------------------------------------------------------------
# timeout diagnostics
# ---------------------------------------------------------------------------
class TestTimeoutDetail:
    def test_timeout_message_names_the_shard(self):
        chain = chain_owned_by(0)
        chaos = ChaosPolicy([ChaosEvent("drop", 0, 1)])

        async def run():
            async with ShardedScenarioService(
                NUM_SHARDS, chaos=chaos, coalesce_window=0.0
            ) as sharded:
                with pytest.raises(ScenarioTimeout, match="in flight on shard 0"):
                    await sharded.submit(reachability_request(chain), timeout=1.0)

        asyncio.run(run())
