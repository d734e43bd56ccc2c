"""``python -m repro optimize`` — optimize repair policies from the shell.

Long-run objectives (``availability``/``unavailability``, ``cost-rate``)
run exact policy iteration; finite-horizon objectives (``survivability``,
``accumulated-cost``) run the coalesced rollout.  Either way the paper's
five fixed strategies are evaluated as policies of the same CTMDP and
printed next to the optimized result.

Examples::

    python -m repro optimize --line 1 --objective survivability
    python -m repro optimize --line 2 --objective availability --metrics
    python -m repro optimize --line 2 --objective accumulated-cost \
        --disaster disaster2 --horizon 24 --crews 2
"""

from __future__ import annotations

import argparse

from repro.casestudy.facility import LINE1, LINE2, build_line
from repro.casestudy.reporting import format_table
from repro.cli import bounded, grid_points
from repro.ctmc.linsolve import SolverEngine
from repro.optimize.ctmdp import OptimizeError, RepairCTMDP
from repro.optimize.policy_iteration import evaluate_policy, policy_iteration
from repro.optimize.rollout import default_candidates, rollout_optimize
from repro.optimize.stats import OptimizerStats, global_optimizer_stats
from repro.stats import render_metrics

_OBJECTIVES = (
    "survivability",
    "accumulated-cost",
    "availability",
    "unavailability",
    "cost-rate",
)


def build_optimize_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-watertreatment optimize",
        description=(
            "Optimize the repair-assignment policy of a facility line: exact "
            "policy iteration for long-run objectives, coalesced rollout for "
            "finite-horizon ones; the paper's fixed strategies are reported "
            "as baselines."
        ),
    )
    parser.add_argument(
        "--line",
        default="1",
        choices=["1", "2", LINE1, LINE2],
        help="facility line to optimize (default: 1)",
    )
    parser.add_argument(
        "--objective",
        default="survivability",
        choices=list(_OBJECTIVES),
        help="what to optimize (default: survivability)",
    )
    parser.add_argument(
        "--disaster",
        default=None,
        help="disaster name for finite-horizon objectives (default: the line's first)",
    )
    parser.add_argument(
        "--interval",
        type=bounded(int, 0),
        default=0,
        help="service interval index (X1=0, X2=1, ...) for survivability (default: 0)",
    )
    parser.add_argument(
        "--horizon",
        type=bounded(float, 0, inclusive=False),
        default=None,
        help="time horizon for finite-horizon objectives (default: 4.5 line1 / 100 line2)",
    )
    parser.add_argument(
        "--points",
        type=grid_points,
        default=33,
        help="grid points of the rollout value sweeps (default: 33)",
    )
    parser.add_argument(
        "--crews",
        type=bounded(int, 1),
        default=None,
        metavar="N",
        help=(
            "cap each repair unit at N crews; the default admits every "
            "strategy up to dedicated repair"
        ),
    )
    parser.add_argument(
        "--max-iterations",
        type=bounded(int, 1),
        default=25,
        help="iteration cap for either optimizer (default: 25)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the process-wide optimizer metrics (Prometheus text) at the end",
    )
    return parser


def _print_longrun(ctmdp: RepairCTMDP, objective: str, max_iterations: int) -> int:
    stats = OptimizerStats()
    engine = SolverEngine()
    internal = "unavailability" if objective in ("availability", "unavailability") else "cost_rate"
    candidates = default_candidates(ctmdp)
    rows = []
    best_label, best_gain, best_policy = None, None, None
    for label, policy in candidates.items():
        evaluation = evaluate_policy(ctmdp, policy, engine=engine, stats=stats)
        stats.baseline_evaluations += 1
        gain = evaluation.gains[internal]
        rows.append(
            (
                label,
                f"{1.0 - evaluation.gains['unavailability']:.9f}",
                f"{evaluation.gains['unavailability']:.3e}",
                f"{evaluation.gains['cost_rate']:.6f}",
            )
        )
        if best_gain is None or gain < best_gain:
            best_label, best_gain, best_policy = label, gain, policy
    result = policy_iteration(
        ctmdp,
        objective=internal,
        initial=best_policy,
        engine=engine,
        max_iterations=max_iterations,
        stats=stats,
    )
    rows.append(
        (
            "OPT",
            f"{1.0 - result.gains['unavailability']:.9f}",
            f"{result.gains['unavailability']:.3e}",
            f"{result.gains['cost_rate']:.6f}",
        )
    )
    print(
        format_table(
            ["policy", "availability", "unavailability", "cost rate"],
            rows,
            title=f"Long-run policy optimization ({internal}) — {ctmdp.model.name}",
        )
    )
    changed = sum(
        1 for a, b in zip(result.policy.actions, best_policy.actions) if a != b
    )
    print(
        f"policy iteration: {'converged' if result.converged else 'NOT converged'} "
        f"after {result.iterations} iterations from {best_label} "
        f"({changed} states reassigned, gain {best_gain:.6e} -> {result.gain:.6e})"
    )
    print(f"[{stats.summary()}]")
    print(
        f"[linsolve: {engine.stats.factorizations} factorizations, "
        f"{engine.stats.solves} solves, {engine.stats.columns} RHS columns]"
    )
    global_optimizer_stats().absorb(stats)
    return 0 if result.converged else 1


def _print_rollout(
    ctmdp: RepairCTMDP, objective: str, args: argparse.Namespace, line: str
) -> int:
    from repro.casestudy.experiments import line_service_interval_lower

    stats = OptimizerStats()
    internal = "survivability" if objective == "survivability" else "accumulated_cost"
    disaster = args.disaster or ctmdp.model.disasters[0].name
    horizon = args.horizon if args.horizon is not None else (4.5 if line == LINE1 else 100.0)
    threshold = (
        line_service_interval_lower(line, args.interval)
        if internal == "survivability"
        else None
    )
    result = rollout_optimize(
        ctmdp,
        internal,
        disaster=disaster,
        horizon=horizon,
        threshold=threshold,
        points=args.points,
        max_iterations=args.max_iterations,
        stats=stats,
    )
    unit = "P(recovered)" if internal == "survivability" else "E[cost]"
    rows = [
        (label, f"{value:.9f}")
        for label, value in sorted(
            result.baselines.items(),
            key=lambda item: item[1],
            reverse=internal == "survivability",
        )
    ]
    rows.append(("OPT", f"{result.value:.9f}"))
    title = (
        f"{internal} at t={horizon:g} after {disaster} — {ctmdp.model.name}"
        + (f", service >= X{args.interval + 1}" if threshold is not None else "")
    )
    print(format_table(["policy", unit], rows, title=title))
    gained = result.value - result.best_baseline
    print(
        f"rollout: {'converged' if result.converged else 'iteration cap hit'} "
        f"after {result.iterations} rounds from {result.base_label}; "
        f"objective {result.best_baseline:.9f} -> {result.value:.9f} "
        f"({gained:+.3e}; optimized policy is "
        f"{'new' if result.improved else 'the baseline'})"
    )
    mid = len(result.times) // 2
    print(
        f"optimized curve: t={result.times[1]:g} -> {result.curve[1]:.6f}, "
        f"t={result.times[mid]:g} -> {result.curve[mid]:.6f}, "
        f"t={result.times[-1]:g} -> {result.curve[-1]:.6f}"
    )
    print(f"[{stats.summary()}]")
    global_optimizer_stats().absorb(stats)
    return 0


def optimize_main(argv: list[str] | None = None) -> int:
    """Entry point of ``python -m repro optimize``."""
    parser = build_optimize_parser()
    args = parser.parse_args(argv)
    line = {"1": LINE1, "2": LINE2}.get(args.line, args.line)
    model = build_line(line)
    disasters = [disaster.name for disaster in model.disasters]
    if args.disaster is not None and args.disaster not in disasters:
        parser.error(
            f"argument --disaster: {line} has no disaster {args.disaster!r} "
            f"(choose from {', '.join(disasters)})"
        )
    intervals = len(model.effective_service_tree().service_intervals())
    if args.interval >= intervals:
        parser.error(
            f"argument --interval: {line} has service intervals 0..{intervals - 1}, "
            f"got {args.interval}"
        )
    try:
        ctmdp = RepairCTMDP(model, crew_limit=args.crews)
        print(
            f"{ctmdp.model.name}: {ctmdp.num_states} CTMDP states, "
            f"{ctmdp.total_actions} admissible actions"
            + (f" (crew limit {args.crews})" if args.crews else "")
        )
        if args.objective in ("availability", "unavailability", "cost-rate"):
            code = _print_longrun(ctmdp, args.objective, args.max_iterations)
        else:
            code = _print_rollout(ctmdp, args.objective, args, line)
    except OptimizeError as error:
        print(f"error: {error}")
        return 2
    if args.metrics:
        print()
        print(render_metrics(global_optimizer_stats()), end="")
    return code
