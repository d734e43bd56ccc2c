"""Figure 3 — reliability of both process lines over 1000 hours (no repairs).

Checks the paper's observation that Line 2 is *more* reliable than Line 1
even though it has less redundancy (fewer pumps that can fail), and that
both curves are monotonically decreasing from 1.
"""

from __future__ import annotations

import numpy as np
from bench_support import run_once

from repro.cli import run_experiments


def test_figure3_reliability(benchmark, figure_points):
    result = run_once(benchmark, run_experiments, ["fig3"], points=figure_points)["fig3"]

    print()
    print(result.to_text())

    line1 = np.asarray(result.series["line1"])
    line2 = np.asarray(result.series["line2"])

    assert line1[0] == 1.0 and line2[0] == 1.0
    assert np.all(np.diff(line1) <= 1e-12) and np.all(np.diff(line2) <= 1e-12)
    # Line 2 is more reliable than Line 1 at every positive time point.
    assert np.all(line2[1:] >= line1[1:])
    # Both lines have essentially failed by 1000 h (the figure's right edge).
    assert line1[-1] < 0.01 and line2[-1] < 0.02
    # And the gap is visible in the mid-range, as in the published figure.
    assert result.value_at("line2", 200.0) - result.value_at("line1", 200.0) > 0.05
