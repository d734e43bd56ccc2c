"""Perf benchmark — self-healing supervision under seeded chaos.

The acceptance gate of the supervision layer (ISSUE 9): a full
``paper_registry()`` portfolio swept through a 2-shard service **while a
seeded chaos schedule kills every worker once — one of them by wedging
rather than crashing** — must complete with

* **zero caller-visible ``ShardCrashed``** (transparent retry + failover
  absorb every death),
* **values <= 1e-12 of a single-process run** (retried/failed-over
  requests recompute, never approximate),
* the front reporting **>= 1 supervisor restart and >= 1 heartbeat-miss
  recovery**, with retry/failover counts consistent with the schedule
  (every injected death is visible in the counters).

The schedule comes from :meth:`ChaosPolicy.from_seed`, with each death at
a request position every shard reaches (2 up to the smallest per-shard
share of the portfolio).  The portfolio goes family by family, as
``POST /scenario`` sends it, so a death lands mid-portfolio: the seed
decides which family is in flight, how many of its requests retry and how
many later families fail over while the worker restarts.  CI rotates the
seed per run (``REPRO_CHAOS_SEED=$GITHUB_RUN_ID``) so coverage walks the
schedule space while any failure replays exactly from the seed printed in
the report.  Measurements (wall-clock, deviation, supervision counters and
the schedule itself) are recorded into ``BENCH_resilience.json`` (override
with ``REPRO_BENCH_RESILIENCE_JSON``) for the CI artifact upload.
``REPRO_BENCH_FAST=1`` switches to coarse grids.
"""

from __future__ import annotations

import asyncio
import os
import time as time_module
from collections import Counter
from pathlib import Path

import numpy as np
from bench_support import record, run_once

from repro.service import (
    ArtifactCache,
    ChaosPolicy,
    ScenarioService,
    ShardedScenarioService,
    chaos_seed,
    paper_registry,
    shard_for_fingerprint,
)

FAST = bool(os.environ.get("REPRO_BENCH_FAST"))
POINTS = 7 if FAST else 21
NUM_SHARDS = 2
BENCH_JSON = Path(
    os.environ.get("REPRO_BENCH_RESILIENCE_JSON", "BENCH_resilience.json")
)

_REGISTRY = paper_registry()


def _families():
    """Every scenario family the paper registry knows, in registry order."""
    return [_REGISTRY.expand(name, points=POINTS) for name in _REGISTRY.names]


def test_portfolio_survives_kill_each_shard_once(benchmark):
    """Chaos gate: full portfolio, every worker dies once, zero failures."""
    seed = chaos_seed()
    families = _families()
    portfolio = [request for family in families for request in family]
    # One death per shard at a seeded position that its first worker is
    # sure to reach: each shard receives at least the requests it owns.
    # Exactly one of them wedges (exercising the heartbeat path).
    owned = Counter(
        shard_for_fingerprint(request.chain.fingerprint, NUM_SHARDS)
        for request in portfolio
    )
    horizon = min(owned[shard] for shard in range(NUM_SHARDS))
    chaos = ChaosPolicy.from_seed(seed, NUM_SHARDS, horizon=horizon, wedge_shards=1)

    async def baseline():
        service = ScenarioService(
            artifacts=ArtifactCache(), lump=True, coalesce_window=0.05
        )
        async with service:
            return await service.submit_many(list(portfolio))

    reference = asyncio.run(baseline())

    def chaotic_sweep():
        async def run():
            async with ShardedScenarioService(
                NUM_SHARDS,
                lump=True,
                coalesce_window=0.05,
                chaos=chaos,
                # The injected wedge holds its worker for an hour, so even a
                # generous timeout catches it — and a generous timeout is
                # required: under full-portfolio load a healthy worker's
                # loop can be busy (GIL, result pickling) for seconds at a
                # stretch, and an aggressive timeout would kill healthy
                # workers in a loop until retry budgets drain.
                heartbeat_interval=0.5,
                heartbeat_timeout=8.0,
                backoff_base=0.1,
                backoff_cap=0.5,
                retry_limit=6,
                restart_limit=8,
            ) as sharded:
                results = []
                for family in families:
                    results += await sharded.submit_many(family)
                return results, sharded.stats

        return asyncio.run(run())

    started = time_module.perf_counter()
    results, stats = run_once(benchmark, chaotic_sweep)
    seconds = time_module.perf_counter() - started

    deviation = max(
        float(np.max(np.abs(result.values - expected.values)))
        for result, expected in zip(results, reference)
    )
    restarts = sum(stats.restarts.values())
    misses = sum(stats.heartbeat_misses.values())

    print()
    print(
        f"chaos seed {seed}: schedule {chaos.describe()}; "
        f"{len(portfolio)}-request portfolio on {NUM_SHARDS} shards "
        f"({seconds:.3f}s wall): completed {stats.completed}, "
        f"failed {stats.failed}, retries {stats.retries}, "
        f"restarts {restarts}, failovers {sum(stats.failovers.values())}, "
        f"heartbeat misses {misses}, "
        f"max deviation vs single process {deviation:.2e}"
    )

    record(
        BENCH_JSON,
        "chaos_portfolio",
        {
            "seed": seed,
            "schedule": chaos.describe(),
            "portfolio_requests": len(portfolio),
            "num_shards": NUM_SHARDS,
            "wall_seconds": seconds,
            "completed": stats.completed,
            "failed": stats.failed,
            "retries": stats.retries,
            "restarts": restarts,
            "failovers": sum(stats.failovers.values()),
            "heartbeat_misses": misses,
            "max_deviation": deviation,
        },
    )

    # Gate 1 — zero caller-visible failures: every submission completed.
    assert stats.failed == 0
    assert stats.routed_dead == 0
    assert stats.completed == len(portfolio)

    # Gate 2 — correctness under chaos: retried and failed-over requests
    # recompute exactly.
    assert deviation <= 1e-12

    # Gate 3 — the schedule actually fired and was recovered: every
    # injected death shows up in the supervision counters.  (The wedge can
    # only have been recovered through a heartbeat miss.)
    assert restarts >= NUM_SHARDS
    assert misses >= 1
    assert stats.retries >= 1
