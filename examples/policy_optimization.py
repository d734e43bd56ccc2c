"""Optimize the repair-assignment policy instead of picking a fixed strategy.

The paper compares five *fixed* repair strategies (DED, FRF-1/2, FFF-1/2).
This example asks the stronger question: which repair assignment is actually
best?  It walks through both optimizers of :mod:`repro.optimize` on Line 2
of the water-treatment facility:

* **Exact policy iteration** on the repair CTMDP for a long-run objective
  (here: unavailability with every repair unit capped at one crew, where
  the fixed strategies genuinely differ from the optimum).  Policy
  evaluation is a cached stacked-RHS gain/bias solve; improvement scores
  every admissible action at once.
* **Rollout** for a finite-horizon objective (survivability: probability of
  recovering to service interval X1 within ``t`` hours of Disaster 2).
  Each round scores *all* candidate one-step deviations off the per-state
  values of a single backward value sweep (one value column per policy).

Run with::

    python examples/policy_optimization.py [--crews N] [--horizon HOURS]
"""

import argparse

from repro.casestudy import DISASTER_2
from repro.casestudy.experiments import line_service_interval_lower
from repro.casestudy.facility import LINE2, build_line
from repro.casestudy.reporting import format_table
from repro.ctmc.linsolve import SolverEngine
from repro.optimize import (
    OptimizerStats,
    RepairCTMDP,
    default_candidates,
    evaluate_policy,
    policy_iteration,
    rollout_optimize,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--crews",
        type=int,
        default=1,
        metavar="N",
        help="crew cap per repair unit for the long-run part (default: 1)",
    )
    parser.add_argument(
        "--horizon",
        type=float,
        default=24.0,
        help="survivability horizon in hours for the rollout part (default: 24)",
    )
    args = parser.parse_args()

    # ------------------------------------------------------------------
    # Part 1: long-run unavailability under a crew budget (policy iteration)
    # ------------------------------------------------------------------
    ctmdp = RepairCTMDP(build_line(LINE2), crew_limit=args.crews)
    print(
        f"{ctmdp.model.name} with {args.crews} crew(s) per unit: "
        f"{ctmdp.num_states} CTMDP states, {ctmdp.total_actions} admissible actions"
    )

    stats = OptimizerStats()
    engine = SolverEngine()
    rows = []
    best_label, best_policy, best_gain = None, None, None
    for label, policy in default_candidates(ctmdp).items():
        evaluation = evaluate_policy(ctmdp, policy, engine=engine, stats=stats)
        gain = evaluation.gains["unavailability"]
        rows.append((label, f"{gain:.9f}", f"{evaluation.gains['cost_rate']:.4f}"))
        if best_gain is None or gain < best_gain:
            best_label, best_policy, best_gain = label, policy, gain
    result = policy_iteration(
        ctmdp, objective="unavailability", initial=best_policy, engine=engine, stats=stats
    )
    rows.append(("OPT", f"{result.gain:.9f}", f"{result.gains['cost_rate']:.4f}"))
    print(
        format_table(
            ["policy", "unavailability", "cost rate"],
            rows,
            title=f"Long-run objectives at {args.crews} crew(s) per unit",
        )
    )
    print(
        f"policy iteration converged in {result.iterations} iteration(s) from "
        f"{best_label}: unavailability {best_gain:.9f} -> {result.gain:.9f}"
    )

    # ------------------------------------------------------------------
    # Part 2: survivability after Disaster 2 (coalesced rollout)
    # ------------------------------------------------------------------
    full = RepairCTMDP(build_line(LINE2))  # unlimited crews: paper's full space
    rollout = rollout_optimize(
        full,
        "survivability",
        disaster=DISASTER_2,
        horizon=args.horizon,
        threshold=line_service_interval_lower(LINE2, 0),
        stats=stats,
    )
    rows = sorted(rollout.baselines.items(), key=lambda item: -item[1])
    rows = [(label, f"{value:.9f}") for label, value in rows]
    rows.append(("OPT", f"{rollout.value:.9f}"))
    print(
        format_table(
            ["policy", "P(service >= X1)"],
            rows,
            title=f"Recovery to X1 within {args.horizon:g} h of {DISASTER_2}",
        )
    )
    print(
        f"rollout scored {stats.candidate_actions} candidate deviations on "
        f"{stats.coalesced_sweeps} coalesced sweep(s) "
        f"({stats.sweeps_saved} sweeps saved); optimized policy is "
        f"{'new' if rollout.improved else 'a fixed strategy'}"
    )


if __name__ == "__main__":
    main()
