"""Perf benchmark — complete lumping coverage (interval-until + long-run),
and one partition per chain for the whole registry.

PR 2 lumped the regular bounded-reachability sweeps (Fig. 4/5); this gate
covers the two measure families that stayed on full chains until PR 10:
interval-until bundles and long-run groups.  It also gates the whole paper
registry:

* **Interval-until bundles (Fig. 8/9 family)** — the Line 2 survivability
  thresholds with a strictly positive lower bound ``a``, one bundle per
  repair strategy.  Lumped, each bundle runs both phases on the chain's one
  label-seeded quotient: the backward phase with the decided blocks
  absorbed, the forward phase with the non-safe blocks absorbed.  Gates:
  >= 3x sweep-work reduction (``equivalent_nnz``, which unifies the CSR and
  dense-BLAS lanes), <= 1e-12 agreement with the unlumped bundle, and a
  warm repeat with **zero quotient-kind cache misses**.

* **Table 2 long-run portfolio** — the steady-state availability of every
  (line, strategy) pair.  Lumped, the BSCC decomposition and the stationary
  solves run on quotients seeded with the availability indicator, so the
  factorized systems shrink.  Gates: quotient state counts strictly below
  the full chains, <= 1e-12 agreement with the unlumped portfolio, and a
  warm repeat with zero quotient/factorization/BSCC/stationary misses.

* **Registry session** — a cold ``AnalysisSession`` over every request of
  ``paper_registry()`` (42 requests on 12 distinct chains), lumped against
  unlumped.  Gates: <= 1e-12 agreement, and exactly 12 partition
  refinements — one per distinct chain, however many groups share it.

The first two sessions run at ``epsilon=1e-14`` so Poisson-truncation noise sits
well below the 1e-12 agreement gates (the lumped backward phase keys its
Fox-Glynn windows on the quotient's own, smaller uniformization rate, so
the two lanes genuinely use different windows).

Measurements land in ``BENCH_lump_complete.json`` (override with
``REPRO_BENCH_LUMP_JSON``) for the CI artifact upload.  Setting
``REPRO_BENCH_FAST=1`` trims the portfolio to two repair strategies; all
gates hold there too.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
from bench_support import run_once

from repro.analysis import (
    AnalysisSession,
    MeasureKind,
    MeasureRequest,
    SessionStats,
    planner,
)
from repro.casestudy.experiments import line_service_interval_lower, line_state_space
from repro.casestudy.facility import DISASTER_2, LINE1, LINE2, PAPER_STRATEGIES
from repro.measures import steady_state_availability_request
from repro.service import ArtifactCache, paper_registry

FAST = bool(os.environ.get("REPRO_BENCH_FAST"))
STRATEGIES = PAPER_STRATEGIES[:2] if FAST else PAPER_STRATEGIES
INTERVAL_POINTS = 7 if FAST else 15
INTERVAL_LOWER = 10.0
BENCH_JSON = Path(os.environ.get("REPRO_BENCH_LUMP_JSON", "BENCH_lump_complete.json"))


def _record(key: str, payload: dict) -> None:
    """Merge one gate's measurements into the shared JSON document."""
    document = {}
    if BENCH_JSON.exists():
        try:
            document = json.loads(BENCH_JSON.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            document = {}
    document[key] = payload
    BENCH_JSON.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _interval_requests() -> list[MeasureRequest]:
    """The Fig. 8/9 survivability family as interval-until measures.

    Same Line 2 chains, disaster and service threshold as the paper's
    figures, but with a positive lower bound: "the service level is
    recovered somewhere in ``[a, t]``" — the measure family the figures'
    plain reachability curves degenerate from at ``a = 0``.
    """
    threshold = line_service_interval_lower(LINE2, 0)
    times = INTERVAL_LOWER + np.linspace(0.0, 80.0, INTERVAL_POINTS)
    requests = []
    for configuration in STRATEGIES:
        space = line_state_space(LINE2, configuration)
        requests.append(
            MeasureRequest(
                chain=space.chain,
                times=times,
                kind=MeasureKind.INTERVAL_REACHABILITY,
                target=space.states_with_service_at_least(threshold),
                lower=INTERVAL_LOWER,
                initial_distributions=space.initial_distribution_for_disaster(
                    DISASTER_2
                ),
                tag=configuration.label,
            )
        )
    return requests


def _run_interval(lump: bool, cache: ArtifactCache | None):
    stats = SessionStats()
    session = AnalysisSession(
        lump=lump, artifacts=cache, stats=stats, epsilon=1e-14
    )
    indices = [session.add(request) for request in _interval_requests()]
    results = session.execute()
    values = [np.asarray(results[index].squeezed) for index in indices]
    blocks = [results[index].lumped_states for index in indices]
    return values, blocks, stats


def test_interval_bundles_run_on_quotients(benchmark):
    """Fig. 8/9 interval bundles: quotient sweeps, >= 3x work reduction."""
    unlumped_values, unlumped_blocks, unlumped_stats = _run_interval(False, None)
    assert all(blocks is None for blocks in unlumped_blocks)

    cache = ArtifactCache()
    cold_values, cold_blocks, cold_stats = _run_interval(True, cache)
    warm_snapshot = cache.stats()
    (warm_values, _, _) = run_once(benchmark, lambda: _run_interval(True, cache))
    deltas = cache.stats().misses_since(warm_snapshot)

    deviation = max(
        float(np.max(np.abs(lumped - unlumped)))
        for lumped, unlumped in zip(cold_values, unlumped_values)
    )
    reduction = unlumped_stats.equivalent_nnz / max(cold_stats.equivalent_nnz, 1)
    full_states = _interval_requests()[0].chain.num_states
    print()
    print(
        f"Fig. 8/9 interval bundles ({len(STRATEGIES)} strategies, "
        f"a={INTERVAL_LOWER}, {INTERVAL_POINTS} points): quotient blocks "
        f"{cold_blocks} vs {full_states} full states, equivalent_nnz "
        f"{unlumped_stats.equivalent_nnz} -> {cold_stats.equivalent_nnz} "
        f"({reduction:.1f}x), max deviation {deviation:.2e}, warm miss "
        f"deltas {deltas}"
    )
    _record(
        "interval_bundles",
        {
            "strategies": len(STRATEGIES),
            "full_states": full_states,
            "quotient_blocks": cold_blocks,
            "equivalent_nnz_unlumped": unlumped_stats.equivalent_nnz,
            "equivalent_nnz_lumped": cold_stats.equivalent_nnz,
            "reduction": reduction,
            "max_deviation": deviation,
            "warm_quotient_misses": deltas.get("quotient", 0),
        },
    )
    # Gate (a): every bundle actually ran on a quotient.
    assert all(blocks is not None and blocks < full_states for blocks in cold_blocks)
    # Gate (b): >= 3x sweep-work reduction on the lumped bundles.
    assert reduction >= 3.0
    # Gate (c): lumped values agree with the unlumped bundles.
    assert deviation <= 1e-12
    # Gate (d): the warm repeat rebuilds no quotients and re-lumps nothing.
    assert deltas.get("quotient", 0) == 0
    for warm, cold in zip(warm_values, cold_values):
        np.testing.assert_array_equal(warm, cold)


def _table2_requests() -> list[MeasureRequest]:
    return [
        steady_state_availability_request(
            line_state_space(line, configuration),
            tag=(line, configuration.label),
        )
        for line in (LINE1, LINE2)
        for configuration in STRATEGIES
    ]


def _run_table2(lump: bool, cache: ArtifactCache | None):
    stats = SessionStats()
    session = AnalysisSession(lump=lump, artifacts=cache, stats=stats)
    indices = [session.add(request) for request in _table2_requests()]
    results = session.execute()
    values = [float(results[index].squeezed[0]) for index in indices]
    blocks = [results[index].lumped_states for index in indices]
    return values, blocks, stats


def test_table2_longrun_runs_on_quotients(benchmark):
    """Table 2 portfolio: factorized systems shrink to quotient size."""
    unlumped_values, _, _ = _run_table2(False, None)

    cache = ArtifactCache()
    cold_values, cold_blocks, cold_stats = _run_table2(True, cache)
    warm_snapshot = cache.stats()
    (warm_values, _, _) = run_once(benchmark, lambda: _run_table2(True, cache))
    deltas = cache.stats().misses_since(warm_snapshot)

    deviation = max(
        abs(lumped - unlumped)
        for lumped, unlumped in zip(cold_values, unlumped_values)
    )
    full_states = [request.chain.num_states for request in _table2_requests()]
    print()
    print(
        f"Table 2 long-run portfolio ({len(cold_values)} availabilities): "
        f"quotient blocks {cold_blocks} vs full states {full_states}, "
        f"lumped {cold_stats.lumped_states_before} -> "
        f"{cold_stats.lumped_states_after} states across "
        f"{cold_stats.lumped_groups} groups, max deviation {deviation:.2e}, "
        f"warm miss deltas {deltas}"
    )
    _record(
        "table2_longrun",
        {
            "availabilities": len(cold_values),
            "full_states": full_states,
            "quotient_blocks": cold_blocks,
            "states_before": cold_stats.lumped_states_before,
            "states_after": cold_stats.lumped_states_after,
            "max_deviation": deviation,
            "warm_quotient_misses": deltas.get("quotient", 0),
            "warm_factorization_misses": deltas.get("factorization", 0),
        },
    )
    # Gate (a): every availability solved on a strictly smaller quotient.
    assert all(
        blocks is not None and blocks < states
        for blocks, states in zip(cold_blocks, full_states)
    )
    assert cold_stats.lumped_states_after < cold_stats.lumped_states_before
    # Gate (b): lumped values agree with the unlumped portfolio.
    assert deviation <= 1e-12
    # Gate (c): the warm repeat recomputes no quotients or long-run systems.
    assert deltas.get("quotient", 0) == 0
    assert deltas.get("factorization", 0) == 0
    assert deltas.get("bscc", 0) == 0
    assert deltas.get("stationary", 0) == 0
    assert warm_values == cold_values


def test_registry_session_partitions_each_chain_once(benchmark, monkeypatch):
    """Cold registry session: one refinement per distinct chain, <= 1e-12."""
    registry = paper_registry()
    requests = [
        request for name in registry.names for request in registry.expand(name)
    ]
    chains = len({request.chain.content_key for request in requests})
    partition = planner.lumping_partition
    partitions = []

    def counted(*args, **kwargs):
        partitions.append(args)
        return partition(*args, **kwargs)

    def run(lump: bool):
        stats = SessionStats()
        session = AnalysisSession(lump=lump, stats=stats)
        session.extend(requests)
        start = time.perf_counter()
        results = session.execute()
        return [np.asarray(result.values) for result in results], stats, (
            time.perf_counter() - start
        )

    unlumped_values, _, unlumped_seconds = run(False)
    monkeypatch.setattr(planner, "lumping_partition", counted)
    lumped_values, lumped_stats, lumped_seconds = run_once(benchmark, run, True)

    deviation = max(
        float(np.max(np.abs(lumped - unlumped), initial=0.0))
        for lumped, unlumped in zip(lumped_values, unlumped_values)
    )
    print()
    print(
        f"Registry session ({len(requests)} requests on {chains} chains): "
        f"{len(partitions)} partitions, {lumped_stats.lumped_groups} lumped groups "
        f"({lumped_stats.lumped_states_before} -> {lumped_stats.lumped_states_after} "
        f"states), lumped {lumped_seconds:.3f} s vs unlumped "
        f"{unlumped_seconds:.3f} s, max deviation {deviation:.2e}"
    )
    _record(
        "registry_session",
        {
            "requests": len(requests),
            "chains": chains,
            "partitions": len(partitions),
            "lumped_groups": lumped_stats.lumped_groups,
            "quotient_blocks_total": lumped_stats.lumped_states_after,
            "lumped_session_s": lumped_seconds,
            "unlumped_session_s": unlumped_seconds,
            "max_deviation": deviation,
        },
    )
    # Gate (a): lumped values agree with the unlumped session.
    assert deviation <= 1e-12
    # Gate (b): each distinct chain is refined exactly once.
    assert chains == 12
    assert len(partitions) == chains
