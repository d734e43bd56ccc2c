"""Async scenario service: queued multi-client analysis with shared caches.

The service layer turns the batched analysis session into a long-lived,
multi-client component — the repo's step from "fast library call" toward
the heavy-traffic north star:

* :class:`ScenarioService` — an asyncio front end; many clients
  ``await submit(...)`` measure requests (or registered scenario names),
  and one flush thread drains the queue, coalescing submissions across
  callers into one :meth:`repro.analysis.AnalysisSession.run` call per
  flush, with backpressure (:class:`QueueFull`) and per-request deadlines
  (:class:`ScenarioTimeout`);
* :class:`ShardedScenarioService` — the multi-process front:
  scenario portfolios partitioned across N spawn workers (one analysis
  session + artifact cache each, flushing as the in-process service
  does) with per-shard chain ownership via fingerprint
  routing, content-addressed chain transport (each chain crosses the wire
  to a worker once; requests carry its key) and counters that ride each
  flush's results, so ``/metrics`` never waits for a worker.  Both fronts
  share one submission path: admission, deadlines, ``submit_scenario``
  and the lifecycle are written once.
  The front is *supervised*: dead workers respawn with exponential backoff
  under a restart budget, wedged workers are caught by heartbeat pings,
  in-flight requests retry transparently and a down shard's chains fail
  over to the next alive shard;
* :class:`ChaosPolicy` / :class:`ChaosEvent` — seeded deterministic fault
  injection (kill/wedge/corrupt/delay/drop) wired into the worker side of
  the shard protocol, driving the chaos tests and the
  ``benchmarks/bench_resilience.py`` gate;
* :class:`ScenarioHTTPServer` — a minimal asyncio HTTP server
  (``POST /scenario``, ``GET /registry``, ``GET /metrics``) over either
  front (``python -m repro serve --http PORT [--shards N]``);
* :class:`ArtifactCache` (defined in :mod:`repro.ctmc.artifacts`) — the
  bounded, hit/miss-instrumented store of every reusable analysis
  intermediate, keyed by stable chain fingerprints.  Each service makes a
  private one unless it is handed one, so artifacts survive across its
  flushes (and across services and sessions that share a cache);
* :class:`ScenarioRegistry` / :func:`paper_registry` — named scenario
  specs for the paper's strategy × disaster × service-level grid, expanded
  into concrete requests on demand.

See ``examples/scenario_service.py`` for a runnable multi-client demo and
``python -m repro serve`` for the portfolio-sweeping CLI.
"""

from repro.ctmc.artifacts import (
    DEFAULT_MAX_ENTRIES,
    ArtifactCache,
    CacheKindStats,
    CacheStats,
)
from repro.service.chaos import (
    CHAOS_ACTIONS,
    CHAOS_SEED_ENV,
    ChaosEvent,
    ChaosPolicy,
    chaos_seed,
)
from repro.service.dispatcher import (
    DEFAULT_COALESCE_WINDOW,
    DEFAULT_MAX_BATCH,
    QueueFull,
    ScenarioService,
    ScenarioTimeout,
    ServiceClosed,
    ServiceStats,
)
from repro.service.http import ScenarioHTTPServer
from repro.service.registry import (
    MEASURES,
    ScenarioRegistry,
    ScenarioSpec,
    paper_registry,
)
from repro.service.shard import (
    DEFAULT_NUM_SHARDS,
    ShardCrashed,
    ShardedScenarioService,
    ShardedServiceStats,
    ShardSnapshot,
    shard_for_fingerprint,
)
from repro.stats import DEFAULT_LATENCY_BUCKETS, LatencyHistogram

__all__ = [
    "ArtifactCache",
    "CHAOS_ACTIONS",
    "CHAOS_SEED_ENV",
    "CacheKindStats",
    "CacheStats",
    "ChaosEvent",
    "ChaosPolicy",
    "DEFAULT_COALESCE_WINDOW",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_MAX_BATCH",
    "DEFAULT_MAX_ENTRIES",
    "DEFAULT_NUM_SHARDS",
    "LatencyHistogram",
    "MEASURES",
    "QueueFull",
    "ScenarioHTTPServer",
    "ScenarioRegistry",
    "ScenarioService",
    "ScenarioSpec",
    "ScenarioTimeout",
    "ServiceClosed",
    "ServiceStats",
    "ShardCrashed",
    "ShardSnapshot",
    "ShardedScenarioService",
    "ShardedServiceStats",
    "chaos_seed",
    "paper_registry",
    "shard_for_fingerprint",
]
