"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  The
computations are deterministic numerical analyses (not micro-benchmarks), so
each one is executed exactly once per session (``rounds=1``) and its result
is additionally sanity-checked against the qualitative findings of the
paper — the benchmarks double as end-to-end reproduction checks.

The state-space cache of :mod:`repro.casestudy.experiments` is shared across
benchmarks within the session so that the reported time of each benchmark
reflects the analysis it adds, not repeated state-space construction.
"""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session")
def figure_points() -> int:
    """Grid resolution used by the figure benchmarks.

    Every curve goes on this many points (``run_experiments(points=...)``),
    coarser than most of the registry grids that ``python -m repro`` writes
    as CSV, so a full benchmark session stays in the range of a few
    minutes; the curve *shapes* asserted on are unaffected by the
    resolution.
    """
    return 31
