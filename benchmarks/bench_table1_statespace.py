"""Table 1 — state-space size per repair strategy.

Regenerates the state and transition counts of both process lines for
DED, FRF-1/2 and FFF-1/2 and checks the paper's qualitative observations:

* dedicated repair yields the minimal ``2^n`` state spaces (exact match
  with the published numbers for Line 1: 2048 states, 22528 transitions),
* the queued strategies are much larger,
* FRF and FFF have identical state counts,
* adding a repair crew leaves the state count unchanged and only increases
  the number of transitions.

It also builds the 12 spaces the reproduction uses (Table 1's ten and the
two no-repair DED spaces of Figure 3) one at a time from an empty cache and
records each one's states, transitions and build seconds in
``BENCH_statespace.json`` (override the path with
``REPRO_BENCH_STATESPACE_JSON``) for the CI artifact upload.  The times are
recorded, not gated.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from bench_support import run_once

from repro.arcade.repair import RepairStrategy
from repro.casestudy.experiments import clear_cache, line_state_space, table1_state_space
from repro.casestudy.facility import LINE1, LINE2, PAPER_STRATEGIES, StrategyConfiguration

BENCH_JSON = Path(os.environ.get("REPRO_BENCH_STATESPACE_JSON", "BENCH_statespace.json"))


def test_table1_state_space(benchmark):
    clear_cache()  # measure construction, not cache hits
    result = run_once(benchmark, table1_state_space)

    print()
    print(result.to_text())

    dedicated = result.row_by("strategy", "DED")
    assert dedicated[1] == 2**11 and dedicated[2] == 11 * 2**11  # Line 1 exact
    assert dedicated[3] == 2**9  # Line 2 exact

    frf1 = result.row_by("strategy", "FRF-1")
    frf2 = result.row_by("strategy", "FRF-2")
    fff1 = result.row_by("strategy", "FFF-1")
    fff2 = result.row_by("strategy", "FFF-2")

    # Queued strategies dwarf the dedicated state space.
    assert frf1[1] > 10 * dedicated[1]
    assert frf1[3] > 4 * dedicated[3]
    # FRF and FFF coincide in size; crews only add transitions.
    assert frf1[1] == fff1[1] == frf2[1] == fff2[1]
    assert frf1[3] == fff1[3] == frf2[3] == fff2[3]
    assert frf2[2] > frf1[2] and fff2[2] > fff1[2]
    assert frf2[4] > frf1[4] and fff2[4] > fff1[4]


def test_record_statespace_builds():
    clear_cache()
    dedicated = StrategyConfiguration(RepairStrategy.DEDICATED, 1)
    builds = [(configuration, True) for configuration in PAPER_STRATEGIES]
    builds.append((dedicated, False))
    spaces = {}
    for line in (LINE1, LINE2):
        for configuration, with_repairs in builds:
            start = time.perf_counter()
            space = line_state_space(line, configuration, with_repairs=with_repairs)
            seconds = time.perf_counter() - start
            name = f"{line}/{configuration.label}" + ("" if with_repairs else "/no-repair")
            spaces[name] = {
                "states": space.num_states,
                "transitions": space.num_transitions,
                "build_seconds": round(seconds, 4),
            }
    total = {
        key: round(sum(space[key] for space in spaces.values()), 4)
        for key in ("states", "transitions", "build_seconds")
    }
    BENCH_JSON.write_text(
        json.dumps({"spaces": spaces, "total": total}, indent=2) + "\n", encoding="utf-8"
    )
    print()
    for name, space in spaces.items():
        print(f"{name:24s} {space['states']:6d} states {space['transitions']:7d} "
              f"transitions {space['build_seconds']:.3f} s")
    assert (total["states"], total["transitions"]) == (148_480, 735_436)
