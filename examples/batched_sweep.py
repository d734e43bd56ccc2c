"""A whole figure family as ONE batched analysis session.

This example reproduces the curve family behind Figures 8 and 9 of the
paper — the recovery of Line 2 after Disaster 2, for every repair strategy
and two service intervals — but instead of calling ``survivability_curve``
once per curve (the deprecated per-call idiom, see
``survivability_analysis.py``), it declares every curve as a
:class:`repro.analysis.MeasureRequest` and lets one
:class:`repro.analysis.AnalysisSession` plan and execute them together:

* requests that agree on (chain, uniformization rate, grid) share a single
  uniformization sweep — here, both disasters of a strategy ride one sweep
  as a batched initial-distribution block,
* with ``--lump``, every group is first reduced by ordinary lumpability
  seeded with exactly the target sets the requests observe; the sweep then
  runs on a quotient with orders of magnitude fewer transitions,
* the session's work counters (groups, sweeps, matvecs, lumping
  compression) are printed at the end — the same line the CLI prints.

.. note::
   For anything beyond a one-shot script, the per-call *and* the
   one-session idiom shown here are superseded by the **scenario service**
   (:mod:`repro.service`, see ``scenario_service.py`` next door): it
   coalesces requests across many concurrent clients into one flush on
   its flush thread, and keeps transforms/quotients/Fox–Glynn
   windows in its artifact cache across flushes, so repeated sweeps
   recompute nothing.  A standalone ``AnalysisSession`` shares artifacts
   among its own groups through a private cache, but a new session starts
   from an empty one unless it is handed a shared
   :class:`repro.service.ArtifactCache`.

Run with::

    python examples/batched_sweep.py [--horizon HOURS] [--points N] [--lump]
"""

import argparse

import numpy as np

from repro.analysis import AnalysisSession
from repro.arcade import build_state_space
from repro.casestudy import DISASTER_1, DISASTER_2, PAPER_STRATEGIES, build_line2
from repro.casestudy.reporting import ascii_plot
from repro.measures import service_intervals, survivability_request


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--horizon", type=float, default=100.0, help="time horizon [h]")
    parser.add_argument("--points", type=int, default=51, help="grid points")
    parser.add_argument(
        "--lump", action="store_true", help="solve each group on its lumped quotient"
    )
    args = parser.parse_args()

    times = np.linspace(0.0, args.horizon, args.points)
    spaces = {
        configuration.label: build_state_space(
            build_line2(configuration.strategy.value, configuration.crews)
        )
        for configuration in PAPER_STRATEGIES
    }
    intervals = service_intervals(next(iter(spaces.values())))

    # Declare the whole family first ...
    session = AnalysisSession(lump=args.lump)
    indices: dict[tuple[str, str, int], int] = {}
    for label, space in spaces.items():
        for disaster in (DISASTER_1, DISASTER_2):
            for interval_index in (0, len(intervals) - 2):
                threshold = intervals[interval_index][0]
                indices[(label, disaster, interval_index)] = session.add(
                    survivability_request(
                        space, disaster, threshold, times,
                        tag=(label, disaster, interval_index),
                    )
                )

    # ... then execute it: one sweep per (chain, rate, grid) group.  The two
    # disasters of each (strategy, interval) pair share a sweep because they
    # differ only in the initial distribution.
    results = session.execute()

    for disaster in (DISASTER_1, DISASTER_2):
        for interval_index in (0, len(intervals) - 2):
            series = {
                label: results[indices[(label, disaster, interval_index)]].squeezed
                for label in spaces
            }
            print(
                ascii_plot(
                    times,
                    series,
                    width=68,
                    height=12,
                    title=(
                        f"P(recover to interval X{interval_index + 1} within t) "
                        f"after {disaster}"
                    ),
                    y_label="P(recovered)",
                )
            )
            print()

    print(f"[{session.stats.summary()}]")
    print(
        f"(the {session.stats.requests} curves shared {session.stats.sweeps} sweeps; "
        "per-call evaluation would have swept once per curve)"
    )


if __name__ == "__main__":
    main()
