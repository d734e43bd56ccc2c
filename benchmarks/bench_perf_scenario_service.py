"""Perf benchmark — the async scenario service vs one batched session.

Two acceptance gates of the service subsystem, measured in the engine's own
work units and the artifact cache's own counters (observed, not estimated):

* **Cross-client coalescing (Fig. 4/5 family, Line 1, Disaster 1)** — N
  concurrent clients each submit the whole six-curve family; the
  service's coalescing window merges all N·6 submissions into one flush
  whose planner groups them exactly like a single batched session.  Gate:
  the service performs **no more uniformization sweeps** than one PR-2
  batched session of the family, and every client's curves agree with the
  session values to <= 1e-12.

* **Warm artifact cache (repeat portfolio)** — the same lumped portfolio is
  swept twice through services sharing one process-wide
  :class:`repro.service.ArtifactCache`.  Gate: the second sweep reports
  **zero quotient and zero Fox–Glynn misses** (and zero transform/operator
  misses), i.e. the FRF-1/FFF-1 shared-``q`` window recomputation and the
  per-session lumping refinement are gone.

Setting ``REPRO_BENCH_FAST=1`` (used by the CI regression step) switches to
coarser grids; both gates hold there too.
"""

from __future__ import annotations

import asyncio
import os
import time as time_module

import numpy as np
from bench_support import run_once

from repro.analysis import AnalysisSession, SessionStats
from repro.service import ArtifactCache, ScenarioService, paper_registry

FAST = bool(os.environ.get("REPRO_BENCH_FAST"))
POINTS = 31 if FAST else 91
NUM_CLIENTS = 4

_REGISTRY = paper_registry()


def _family_requests():
    """The Fig. 4/5 curve family (3 strategies x intervals X1/X2).

    Expanded from the registry spec, so the benchmark gates exactly the
    workload the service serves — the family is defined once.
    """
    return _REGISTRY.expand("fig4_5", points=POINTS)


def test_concurrent_clients_coalesce_to_one_session(benchmark):
    """N clients' identical families -> no more sweeps than one session."""
    family = _family_requests()

    baseline_stats = SessionStats()
    baseline = AnalysisSession(stats=baseline_stats)
    indices = [baseline.add(request) for request in family]
    baseline_results = baseline.execute()
    reference = [baseline_results[index].squeezed for index in indices]

    def serve_clients():
        async def run():
            service = ScenarioService(
                artifacts=ArtifactCache(),
                coalesce_window=5.0,  # the size cap below triggers the flush
                max_batch=NUM_CLIENTS * len(family),
            )
            async with service:
                async def client():
                    results = await service.submit_many(_family_requests())
                    return [result.squeezed for result in results]

                curves = await asyncio.gather(
                    *(client() for _ in range(NUM_CLIENTS))
                )
            return curves, service.stats

        return asyncio.run(run())

    started = time_module.perf_counter()
    curves, stats = run_once(benchmark, serve_clients)
    seconds = time_module.perf_counter() - started

    deviation = max(
        float(np.max(np.abs(np.asarray(curve) - np.asarray(expected))))
        for client_curves in curves
        for curve, expected in zip(client_curves, reference)
    )
    print()
    print(
        f"Fig. 4/5 family x {NUM_CLIENTS} clients ({stats.session.requests} "
        f"submissions): {stats.flushes} flush(es), {stats.session.sweeps} sweeps "
        f"vs single-session {baseline_stats.sweeps} "
        f"({seconds:.3f}s wall), max deviation {deviation:.2e}"
    )
    assert stats.session.requests == NUM_CLIENTS * len(family)
    # The tentpole gate: coalescing must not cost a single extra sweep.
    assert stats.session.sweeps <= baseline_stats.sweeps
    assert deviation <= 1e-12


def test_repeat_portfolio_hits_warm_artifact_cache(benchmark):
    """Second portfolio sweep: zero quotient / Fox-Glynn recomputation."""
    cache = ArtifactCache()

    def sweep_portfolio():
        family = _family_requests()

        async def run():
            service = ScenarioService(
                artifacts=cache,
                lump=True,
                coalesce_window=5.0,  # the size cap (= family size) flushes
                max_batch=len(family),
            )
            async with service:
                results = await service.submit_many(family)
                return [result.squeezed for result in results], service.stats

        return asyncio.run(run())

    cold_curves, cold_stats = sweep_portfolio()
    warm_snapshot = cache.stats()
    warm_curves, warm_stats = run_once(benchmark, sweep_portfolio)
    deltas = cache.stats().misses_since(warm_snapshot)

    deviation = max(
        float(np.max(np.abs(np.asarray(warm) - np.asarray(cold))))
        for warm, cold in zip(warm_curves, cold_curves)
    )
    print()
    print(
        f"Warm portfolio sweep: cache miss deltas {deltas}, "
        f"{warm_stats.session.sweeps} warm sweeps on cached quotients "
        f"(lumped {cold_stats.session.lumped_states_before}->"
        f"{cold_stats.session.lumped_states_after} states on the cold run), "
        f"max warm/cold deviation {deviation:.2e}"
    )
    # The cache gate: repeats recompute no quotients, windows, transforms
    # or operators.
    assert deltas.get("quotient", 0) == 0
    assert deltas.get("foxglynn", 0) == 0
    assert deltas.get("transformed", 0) == 0
    assert deltas.get("operator", 0) == 0
    assert deviation == 0.0  # identical artifacts -> identical values
