"""Perf benchmark — dense-BLAS vs sparse-CSR sweeps and the sweep rule.

Two wall-clock gates over the sweep backends of :mod:`repro.ctmc.engines`,
measured on the paper's own workloads with every artifact cache warm (the
steady-state service regime).  The library offers no way to choose a
backend, so this benchmark forces "always sparse" and "always dense" by
overriding the sweep rule (:func:`repro.ctmc.engines.sweep_backend`)
around the sessions it times (:func:`forced_sweeps`):

* **Dense >= 2x on the Fig. 8 Line 2 sweep** — the family's lumped
  quotients sit deep in the dense-win regime (~79 states for 2560), where
  one contiguous GEMM per step beats hundreds of scipy CSR dispatches.
  The comparison uses the engine layer's own per-sweep wall-clock counter
  (``sweep_seconds``), so only the vector-power walk is timed, and values
  must agree to 1e-9.  The two warm sessions run interleaved, alternating
  which goes first, and the gate compares their medians, so a load spell
  during one stretch of the run cannot decide it.

* **Auto <= 110% of always-sparse on the full paper portfolio** — the
  sweep rule ("auto") must never lose more than the gate's slack on a
  mixed registry (small quotients go dense, the big unlumped chains stay
  sparse), priced in end-to-end warm execution wall-clock.

Every gate records its measurements into ``BENCH_engines.json``
(read-modify-write, override the path with ``REPRO_BENCH_JSON``) for the
CI artifact upload.  ``REPRO_BENCH_FAST=1`` switches to coarse grids.
"""

from __future__ import annotations

import os
import statistics
import time as time_module
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from bench_support import record, run_once

from repro.analysis import AnalysisSession, SessionStats
from repro.casestudy.experiments import line_state_space
from repro.casestudy.facility import DISASTER_1, LINE2, PAPER_STRATEGIES
from repro.ctmc import engines
from repro.measures import survivability_request
from repro.service import ArtifactCache, paper_registry

FAST = bool(os.environ.get("REPRO_BENCH_FAST"))
LINE2_POINTS = 31 if FAST else 101
PORTFOLIO_POINTS = 15 if FAST else None
BENCH_JSON = Path(os.environ.get("REPRO_BENCH_JSON", "BENCH_engines.json"))

#: Interleaved warm sweeps per backend in the dense-vs-sparse gate.
SWEEP_ROUNDS = 9

#: Warm repetitions per backend; best-of keeps scheduler noise out of ratios.
PORTFOLIO_REPEATS = 3


def _fig8_requests():
    space = line_state_space(LINE2, PAPER_STRATEGIES[0])
    threshold = space.model.effective_service_tree().service_intervals()[0][0]
    times = np.linspace(0.0, 100.0, LINE2_POINTS)
    return [
        survivability_request(
            line_state_space(LINE2, configuration), DISASTER_1, threshold, times
        )
        for configuration in PAPER_STRATEGIES
    ]


@contextmanager
def forced_sweeps(backend):
    """Walk every sweep inside on ``backend``; ``None`` leaves the sweep rule."""
    with pytest.MonkeyPatch.context() as patch:
        if backend is not None:
            patch.setattr(engines, "sweep_backend", lambda num_states, nnz: backend)
        yield


def _fig8_session(backend, artifacts):
    stats = SessionStats()
    session = AnalysisSession(lump=True, stats=stats, artifacts=artifacts)
    for request in _fig8_requests():
        session.add(request)
    return session, stats, backend


def _execute(run):
    session, _, backend = run
    with forced_sweeps(backend):
        return session.execute()


def _interleaved_median_sweep_seconds(first, second):
    """Median warm sweep wall-clock of two ``(session, stats, backend)`` runs.

    The sessions take turns, and the one that goes first alternates per
    round, so both sample the same stretch of host load.
    """
    samples = ([], [])
    for round_index in range(SWEEP_ROUNDS):
        for index in (0, 1) if round_index % 2 == 0 else (1, 0):
            run = (first, second)[index]
            stats = run[1]
            before = stats.sweep_seconds
            _execute(run)
            samples[index].append(stats.sweep_seconds - before)
    return statistics.median(samples[0]), statistics.median(samples[1])


def test_dense_engine_beats_sparse_on_warm_fig8_sweep(benchmark):
    """The >= 2x dense-vs-sparse gate on the Fig. 8 Line 2 lumped quotients."""
    artifacts = ArtifactCache()
    sparse = _fig8_session("sparse", artifacts)
    dense = _fig8_session("dense", artifacts)
    # The first execution of each session fills the caches and is not timed.
    sparse_values = [result.squeezed for result in _execute(sparse)]
    dense_values = [result.squeezed for result in _execute(dense)]
    sparse_median, dense_median = run_once(
        benchmark, _interleaved_median_sweep_seconds, sparse, dense
    )

    deviation = max(
        float(np.max(np.abs(np.asarray(a) - np.asarray(b))))
        for a, b in zip(dense_values, sparse_values)
    )
    ratio = sparse_median / max(dense_median, 1e-12)
    print()
    print(
        f"Fig. 8 Line 2 warm sweep ({len(sparse_values)} strategies, lumped, "
        f"median of {SWEEP_ROUNDS} interleaved): sparse "
        f"{sparse_median * 1e3:.2f}ms vs dense {dense_median * 1e3:.2f}ms "
        f"({ratio:.2f}x), max deviation {deviation:.2e}"
    )
    record(
        BENCH_JSON,
        "fig8_dense_vs_sparse",
        {
            "points": LINE2_POINTS,
            "rounds": SWEEP_ROUNDS,
            "sparse_median_seconds": sparse_median,
            "dense_median_seconds": dense_median,
            "speedup": ratio,
            "max_deviation": deviation,
        },
    )
    assert deviation <= 1e-9
    assert sparse_median >= 2.0 * dense_median, (
        f"dense engine only {ratio:.2f}x faster than sparse on the warm "
        f"Fig. 8 quotient sweep (gate: >= 2x)"
    )


def test_auto_selection_stays_close_to_always_sparse_portfolio(benchmark):
    """The sweep rule may trade at most 10% against always-sparse on the full registry."""
    registry = paper_registry()
    portfolio = [
        request
        for name in registry.names
        for request in registry.expand(name, points=PORTFOLIO_POINTS)
    ]

    def best_warm_wall(backend):
        artifacts = ArtifactCache()
        session = AnalysisSession(lump=True, artifacts=artifacts)
        for request in portfolio:
            session.add(request)
        with forced_sweeps(backend):
            session.execute()  # cold run fills every cache, priced in neither run
            best = float("inf")
            for _ in range(PORTFOLIO_REPEATS):
                started = time_module.perf_counter()
                session.execute()
                best = min(best, time_module.perf_counter() - started)
        return best

    sparse_best = best_warm_wall("sparse")
    auto_best = run_once(benchmark, best_warm_wall, None)

    ratio = auto_best / max(sparse_best, 1e-12)
    print()
    print(
        f"paper portfolio ({len(portfolio)} requests, warm): always-sparse "
        f"{sparse_best * 1e3:.1f}ms vs auto {auto_best * 1e3:.1f}ms "
        f"({ratio * 100:.0f}%)"
    )
    record(
        BENCH_JSON,
        "portfolio_auto_vs_sparse",
        {
            "requests": len(portfolio),
            "sparse_seconds": sparse_best,
            "auto_seconds": auto_best,
            "auto_over_sparse": ratio,
        },
    )
    assert auto_best <= 1.10 * sparse_best, (
        f"the sweep rule is {ratio * 100:.0f}% of always-sparse on the "
        f"warm portfolio (gate: <= 110%)"
    )
