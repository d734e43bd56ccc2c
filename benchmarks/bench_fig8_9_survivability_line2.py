"""Figures 8 and 9 — survivability of Line 2 after Disaster 2.

Disaster 2 fails two pumps, one softener, one sand filter and the
reservoir.  The benchmark regenerates the recovery curves to service
intervals X1 and X3 for all five strategies and checks the paper's
qualitative findings:

* FFF-1 is clearly the slowest to recover to X1 (it repairs the reservoir
  late, and without the reservoir no service is possible),
* DED recovers fastest,
* between X1 and X3 the ordering of FRF and FFF flips (for X3 the sand
  filter matters more than the reservoir): with two crews, FFF-2 overtakes
  FRF-2.
"""

from __future__ import annotations

import numpy as np
from bench_support import run_once

from repro.cli import run_experiments


def test_figure8_9_survivability_line2(benchmark, figure_points):
    results = run_once(benchmark, run_experiments, ["fig8", "fig9"], points=figure_points)
    figure8, figure9 = results["fig8"], results["fig9"]

    print()
    print(figure8.to_text())
    print(figure9.to_text())

    for figure in (figure8, figure9):
        for values in figure.series.values():
            values = np.asarray(values)
            assert values[0] == 0.0
            assert np.all(np.diff(values) >= -1e-9)

    probe = 20.0  # hours
    # X1: FFF-1 is the clear laggard; DED the clear leader.
    x1 = {label: figure8.value_at(label, probe) for label in figure8.series}
    assert x1["FFF-1"] < min(x1["FRF-1"], x1["FRF-2"], x1["FFF-2"], x1["DED"]) - 0.1
    assert x1["DED"] >= max(value for label, value in x1.items() if label != "DED") - 1e-9
    assert x1["FRF-2"] > x1["FRF-1"]

    # X3: with two crews the ordering between FRF and FFF flips.
    x3 = {label: figure9.value_at(label, probe) for label in figure9.series}
    assert x1["FRF-2"] > x1["FFF-2"]          # FRF ahead for X1 ...
    assert x3["FFF-2"] > x3["FRF-2"]          # ... FFF ahead for X3.
