"""Figures 10 and 11 — instantaneous and accumulated cost, Line 2, Disaster 2.

Checks the paper's cost findings for Line 2 after Disaster 2:

* the initial instantaneous cost is 15 (five failed components at 3/h) for
  every queued strategy,
* FFF-1 has the slowest convergence of the instantaneous cost and by far
  the highest accumulated cost (it keeps re-repairing fast-failing pumps
  while expensive components stay broken),
* the FRF strategies accumulate the least cost, with FRF-1 and FRF-2 close
  together (the paper recommends FRF-2 as it also recovers fastest).
"""

from __future__ import annotations

import numpy as np
import pytest
from bench_support import run_once

from repro.cli import run_experiments


def test_figure10_11_costs_line2(benchmark, figure_points):
    results = run_once(benchmark, run_experiments, ["fig10", "fig11"], points=figure_points)
    figure10, figure11 = results["fig10"], results["fig11"]

    print()
    print(figure10.to_text())
    print(figure11.to_text())

    for label, values in figure10.series.items():
        assert values[0] == pytest.approx(15.0, abs=1e-6), label

    probe = 20.0
    instantaneous = {label: figure10.value_at(label, probe) for label in figure10.series}
    assert instantaneous["FFF-1"] > max(
        value for label, value in instantaneous.items() if label != "FFF-1"
    )

    accumulated = {label: figure11.final_value(label) for label in figure11.series}
    assert accumulated["FFF-1"] > max(
        value for label, value in accumulated.items() if label != "FFF-1"
    ) + 50.0
    # The FRF pair is the cheapest and lies within a few percent of each other.
    cheapest_two = sorted(accumulated, key=accumulated.get)[:2]
    assert set(cheapest_two) == {"FRF-1", "FRF-2"}
    assert abs(accumulated["FRF-1"] - accumulated["FRF-2"]) / accumulated["FRF-1"] < 0.05

    for values in figure11.series.values():
        assert np.all(np.diff(np.asarray(values)) >= -1e-9)
