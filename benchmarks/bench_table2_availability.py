"""Table 2 — steady-state availability per repair strategy.

Regenerates the availability of Line 1, Line 2 and their combination for
every strategy and checks:

* the dedicated-repair values match the paper's published numbers to 1e-5
  (0.7442018 / 0.8186317 / 0.9536063),
* dedicated repair has the highest availability,
* two-crew strategies come close to dedicated repair, one-crew strategies
  are clearly lower (the paper's main availability finding).
"""

from __future__ import annotations

import pytest
from bench_support import run_once

from repro.cli import run_experiments

PAPER_DED = (0.7442018, 0.8186317, 0.9536063)


def test_table2_availability(benchmark):
    result = run_once(benchmark, run_experiments, ["table2"])["table2"]

    print()
    print(result.to_text())

    dedicated = result.row_by("strategy", "DED")
    assert dedicated[1] == pytest.approx(PAPER_DED[0], abs=1e-5)
    assert dedicated[2] == pytest.approx(PAPER_DED[1], abs=1e-5)
    assert dedicated[3] == pytest.approx(PAPER_DED[2], abs=1e-5)

    by_strategy = {row[0]: row for row in result.rows}
    for line_column in (1, 2, 3):
        dedicated_value = by_strategy["DED"][line_column]
        for label in ("FRF-1", "FRF-2", "FFF-1", "FFF-2"):
            assert by_strategy[label][line_column] <= dedicated_value + 1e-9
        # Two crews recover most of the dedicated availability ...
        assert by_strategy["FRF-2"][line_column] > by_strategy["FRF-1"][line_column]
        assert by_strategy["FFF-2"][line_column] > by_strategy["FFF-1"][line_column]
        # ... and get within 0.1% of it, while one crew loses noticeably more.
        assert dedicated_value - by_strategy["FRF-2"][line_column] < 0.001
        assert dedicated_value - by_strategy["FRF-1"][line_column] > 0.005
