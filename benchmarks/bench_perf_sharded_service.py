"""Perf benchmark — the sharded multi-process scenario service.

Acceptance gates of the shard-out subsystem, measured in the workers' own
cache and session counters (observed through the shared-nothing stats
protocol, not estimated) and in the front's transport counters:

* **Warm shard caches (repeat portfolio)** — the same portfolio (Fig. 4/5,
  Fig. 8/9 and the Table 2 availability grid: both lines, transient *and*
  long-run kinds) is swept cold and then repeatedly warm through one
  2-shard service.  Gate: on the warm rounds **neither shard reports a
  single factorization or quotient miss** (nor transform/operator/Fox–Glynn
  misses) — per-shard chain ownership keeps every LU factorization, BSCC
  decomposition and lumping quotient warm exactly where its chain lives.

* **Exclusive chain ownership (fingerprint routing)** — after the sweeps,
  the two shards' artifact caches must cover **disjoint chain-fingerprint
  sets** while both shards actually served traffic: routing by content
  fingerprint never computes the same chain's artifacts on two workers, so
  shard-out adds capacity without duplicating cache work.

* **Each chain crosses the wire once** — the warm rounds upload **no**
  chain, and a warm round sends at most 10% of the bytes the cold round
  sent (chain uploads plus request messages): a warm request carries only
  its chain's content key plus its own masks and vectors.

* **Warm rounds at single-process speed** — the median of 5 warm 2-shard
  rounds is within 1.5x of the median of 5 warm rounds of one in-process
  service.

* **Duplicated clients share sweeps** — 4 clients submitting the same
  portfolio at once to a warm 1-shard front cost exactly the sweeps the
  same 4 clients cost on one in-process service.

Values are additionally pinned against a single-process
:class:`repro.service.ScenarioService` run of the identical portfolio
(<= 1e-12).  ``REPRO_BENCH_FAST=1`` (the CI regression step) switches to
coarser grids; the gates hold there too.
"""

from __future__ import annotations

import asyncio
import os
import statistics
import time as time_module

import numpy as np
from bench_support import run_once

from repro.service import (
    ArtifactCache,
    CacheStats,
    ScenarioService,
    ShardedScenarioService,
    paper_registry,
)

FAST = bool(os.environ.get("REPRO_BENCH_FAST"))
POINTS = 9 if FAST else 31
NUM_SHARDS = 2
SCENARIOS = ("fig4_5", "fig8_9", "table2")
#: Timed warm rounds per service; the wall-clock gate compares medians.
WARM_ROUNDS = 5
#: Bound on a warm 2-shard round's median, relative to a single process's.
WARM_TIME_RATIO = 1.5
#: Bound on a warm round's bytes on the wire, relative to the cold round's.
WARM_BYTES_RATIO = 0.1
#: Concurrent clients of the duplicated-client gate.
CLIENTS = 4
#: Coalescing window of the duplicated-client gate: wide enough that every
#: client's whole portfolio lands in one flush on either service.
DUPLICATE_WINDOW = 1.0

_REGISTRY = paper_registry()


def _portfolio():
    """Both lines' survivability families plus the availability table."""
    return [
        request
        for name in SCENARIOS
        for request in _REGISTRY.expand(name, points=POINTS)
    ]


async def _warm_rounds(service, portfolio):
    """The last warm round's results and every round's wall seconds."""
    seconds = []
    for _ in range(WARM_ROUNDS):
        started = time_module.perf_counter()
        results = await service.submit_many(list(portfolio))
        seconds.append(time_module.perf_counter() - started)
    return results, seconds


def _bytes_sent(stats) -> int:
    return stats.chain_bytes + stats.request_bytes


def test_sharded_portfolio_warm_caches_and_exclusive_ownership(benchmark):
    """Warm repeat: no misses, no uploads, single-process speed; chains owned once."""
    portfolio = _portfolio()

    async def baseline():
        service = ScenarioService(
            artifacts=ArtifactCache(), lump=True, coalesce_window=0.05, max_batch=1024
        )
        async with service:
            reference = await service.submit_many(list(portfolio))
            _, seconds = await _warm_rounds(service, portfolio)
            return reference, seconds

    reference, single_seconds = asyncio.run(baseline())

    def sharded_rounds():
        async def run():
            async with ShardedScenarioService(
                NUM_SHARDS, lump=True, coalesce_window=0.05, max_batch=1024
            ) as sharded:
                cold = await sharded.submit_many(list(portfolio))
                cold_snapshots = await sharded.shard_snapshots()
                cold_uploads = sharded.stats.chain_uploads
                cold_bytes = _bytes_sent(sharded.stats)
                warm, seconds = await _warm_rounds(sharded, portfolio)
                warm_snapshots = await sharded.shard_snapshots()
                transport = {
                    "cold_uploads": cold_uploads,
                    "cold_bytes": cold_bytes,
                    "warm_uploads": sharded.stats.chain_uploads - cold_uploads,
                    "warm_round_bytes": (_bytes_sent(sharded.stats) - cold_bytes)
                    / WARM_ROUNDS,
                }
                return (
                    cold, warm, cold_snapshots, warm_snapshots, sharded.stats,
                    transport, seconds,
                )

        return asyncio.run(run())

    started = time_module.perf_counter()
    (
        cold, warm, cold_snapshots, warm_snapshots, stats, transport, sharded_seconds
    ) = run_once(benchmark, sharded_rounds)
    seconds = time_module.perf_counter() - started

    deviation = max(
        float(np.max(np.abs(result.values - expected.values)))
        for result, expected in zip(cold + warm, reference + reference)
    )
    warm_deltas = {
        snapshot.index: snapshot.cache.misses_since(
            next(c for c in cold_snapshots if c.index == snapshot.index).cache
            or CacheStats()
        )
        for snapshot in warm_snapshots
    }
    owned = {snapshot.index: snapshot.fingerprints for snapshot in warm_snapshots}
    single_median = statistics.median(single_seconds)
    sharded_median = statistics.median(sharded_seconds)

    print()
    print(
        f"{len(portfolio)}-request portfolio, 1 cold + {WARM_ROUNDS} warm rounds on "
        f"{NUM_SHARDS} shards ({seconds:.3f}s wall): routed "
        f"{dict(sorted(stats.routed.items()))}, warm miss deltas {warm_deltas}, "
        f"owned chains {({i: len(f) for i, f in sorted(owned.items())})}, "
        f"max deviation vs single process {deviation:.2e}"
    )
    print(
        f"transport: cold round {transport['cold_uploads']} chain uploads, "
        f"{transport['cold_bytes']} bytes; warm rounds "
        f"{transport['warm_uploads']} uploads, "
        f"{transport['warm_round_bytes']:.0f} bytes per round; "
        f"warm round median {sharded_median:.3f}s sharded vs "
        f"{single_median:.3f}s single process "
        f"({sharded_median / single_median:.2f}x)"
    )

    assert deviation <= 1e-12

    # Gate 1 — warm repeat: zero factorization/quotient (and transform/
    # operator/window) misses on EITHER shard.
    for index, deltas in warm_deltas.items():
        for kind in ("factorization", "quotient", "transformed", "operator", "foxglynn"):
            assert deltas.get(kind, 0) == 0, (
                f"shard {index} recomputed {kind} artifacts on the warm round: "
                f"{deltas}"
            )

    # Gate 2 — exclusive ownership: both shards served chains, and no chain's
    # artifacts were ever computed on more than one shard.
    assert all(count > 0 for count in stats.routed.values())
    assert all(owned.values())
    assert not (owned[0] & owned[1]), (
        f"fingerprint routing duplicated chains across shards: "
        f"{sorted(owned[0] & owned[1])}"
    )

    # Gate 3 — each chain crosses the wire once per worker.
    assert transport["warm_uploads"] == 0, transport
    warm_bytes_limit = WARM_BYTES_RATIO * transport["cold_bytes"]
    assert transport["warm_round_bytes"] <= warm_bytes_limit, transport

    # Gate 4 — a warm sharded round costs about what one process does.
    assert sharded_median <= WARM_TIME_RATIO * single_median, (
        f"warm 2-shard round median {sharded_median:.3f}s exceeds "
        f"{WARM_TIME_RATIO}x the single-process median {single_median:.3f}s"
    )


def test_duplicated_clients_cost_single_process_sweeps():
    """4 clients x the same portfolio on a warm 1-shard front: one process's sweeps."""
    portfolio = _portfolio()

    async def duplicated_round(service, sweeps):
        # Warm first (chains uploaded, artifacts cached), then count the
        # sweeps of one round in which every client sends the portfolio.
        await service.submit_many(list(portfolio))
        before = await sweeps()
        await asyncio.gather(
            *(service.submit_many(list(portfolio)) for _ in range(CLIENTS))
        )
        return await sweeps() - before

    async def single():
        async with ScenarioService(
            artifacts=ArtifactCache(),
            lump=True,
            coalesce_window=DUPLICATE_WINDOW,
            max_batch=1024,
        ) as service:

            async def sweeps():
                return service.stats.session.sweeps

            return await duplicated_round(service, sweeps)

    async def sharded():
        async with ShardedScenarioService(
            1,
            lump=True,
            coalesce_window=DUPLICATE_WINDOW,
            max_batch=1024,
            heartbeat_interval=None,
        ) as front:

            async def sweeps():
                (snapshot,) = await front.shard_snapshots()
                return snapshot.service.session.sweeps

            return await duplicated_round(front, sweeps)

    single_sweeps = asyncio.run(single())
    sharded_sweeps = asyncio.run(sharded())
    print()
    print(
        f"{CLIENTS} clients x {len(portfolio)} requests: {single_sweeps} sweeps in "
        f"one process, {sharded_sweeps} on a 1-shard front"
    )
    assert single_sweeps > 0
    assert sharded_sweeps == single_sweeps
