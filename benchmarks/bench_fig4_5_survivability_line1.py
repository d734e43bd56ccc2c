"""Figures 4 and 5 — survivability of Line 1 after Disaster 1 (all pumps failed).

Regenerates the recovery curves to service intervals X1 and X2 for DED,
FRF-1 and FRF-2 and checks the paper's findings:

* DED recovers fastest, FRF-2 second, FRF-1 slowest (the extra crew speeds
  up recovery),
* recovery to X2 (two pumps needed) is slower than recovery to X1 (one
  pump suffices) for every strategy,
* all curves start at 0 and increase towards 1.
"""

from __future__ import annotations

import numpy as np
from bench_support import run_once

from repro.cli import run_experiments


def test_figure4_5_survivability_line1(benchmark, figure_points):
    results = run_once(benchmark, run_experiments, ["fig4", "fig5"], points=figure_points)
    figure4, figure5 = results["fig4"], results["fig5"]

    print()
    print(figure4.to_text())
    print(figure5.to_text())

    for figure in (figure4, figure5):
        for label, values in figure.series.items():
            values = np.asarray(values)
            assert values[0] == 0.0, f"{label} must start unrecovered"
            assert np.all(np.diff(values) >= -1e-9), f"{label} must be non-decreasing"
            assert values[-1] <= 1.0 + 1e-9

    probe = 1.0  # hour
    for figure in (figure4, figure5):
        ded = figure.value_at("DED", probe)
        frf1 = figure.value_at("FRF-1", probe)
        frf2 = figure.value_at("FRF-2", probe)
        assert ded > frf2 > frf1

    # Recovery to the higher service interval X2 is slower than to X1.
    for label in figure4.series:
        assert figure4.value_at(label, probe) > figure5.value_at(label, probe)
