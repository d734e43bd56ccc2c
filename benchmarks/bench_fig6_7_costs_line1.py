"""Figures 6 and 7 — instantaneous and accumulated cost, Line 1, Disaster 1.

Checks the paper's cost findings for Line 1:

* right after the disaster the instantaneous cost is 12 for the queued
  strategies (four failed pumps at 3 per hour) and 19 for DED (plus seven
  idle dedicated crews),
* DED has the highest instantaneous cost throughout and the highest
  accumulated cost,
* FRF-1's instantaneous cost converges more slowly than FRF-2's, and FRF-2
  accumulates less cost than FRF-1 over the 10-hour window of Figure 7.
"""

from __future__ import annotations

import numpy as np
import pytest
from bench_support import run_once

from repro.cli import run_experiments


def test_figure6_7_costs_line1(benchmark, figure_points):
    results = run_once(benchmark, run_experiments, ["fig6", "fig7"], points=figure_points)
    figure6, figure7 = results["fig6"], results["fig7"]

    print()
    print(figure6.to_text())
    print(figure7.to_text())

    # Initial instantaneous cost: 4 failed pumps * 3/h (+ 7 idle crews for DED).
    assert figure6.series["FRF-1"][0] == pytest.approx(12.0, abs=1e-6)
    assert figure6.series["FRF-2"][0] == pytest.approx(12.0, abs=1e-6)
    assert figure6.series["DED"][0] == pytest.approx(19.0, abs=1e-6)

    times = figure6.times
    ded = np.asarray(figure6.series["DED"])
    frf1 = np.asarray(figure6.series["FRF-1"])
    frf2 = np.asarray(figure6.series["FRF-2"])
    assert np.all(ded >= frf1 - 1e-9) and np.all(ded >= frf2 - 1e-9)
    # After the first hour the single crew lags behind the double crew.
    late = times >= 1.0
    assert np.all(frf1[late] >= frf2[late] - 1e-9)

    # Accumulated cost (Figure 7): DED most expensive; FRF-2 cheaper than FRF-1.
    assert figure7.final_value("DED") > figure7.final_value("FRF-1")
    assert figure7.final_value("DED") > figure7.final_value("FRF-2")
    assert figure7.final_value("FRF-2") < figure7.final_value("FRF-1")
    # Accumulated cost is increasing in time for every strategy.
    for values in figure7.series.values():
        assert np.all(np.diff(np.asarray(values)) >= -1e-9)
