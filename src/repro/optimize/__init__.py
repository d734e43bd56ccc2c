"""Repair-policy optimization on top of the batched evaluator.

The paper compares five *fixed* repair strategies; this package asks which
assignment policy is actually best.  :class:`RepairCTMDP` turns an Arcade
model into a controlled chain (states = failed-component sets, actions =
which failed components each repair unit serves; fixed strategies become
policies), :func:`policy_iteration` optimizes long-run objectives
(unavailability, cost rate) exactly via cached stacked-RHS gain/bias
solves, and :func:`rollout_optimize` improves finite-horizon objectives
(survivability at ``t``, accumulated cost) with all candidate one-step
deviations of a round scored off one backward value sweep.

Entry points: ``python -m repro optimize`` (CLI), the registry's
``optimized_*`` scenario family (``paper_registry(include_optimized=True)``)
and :func:`global_optimizer_stats` feeding the service ``/metrics`` dump.
"""

from repro.optimize.ctmdp import (
    MAX_ACTIONS_PER_STATE,
    MAX_CTMDP_STATES,
    OptimizeError,
    RepairCTMDP,
    RepairPolicy,
)
from repro.optimize.policy_iteration import (
    LONGRUN_OBJECTIVES,
    PolicyEvaluation,
    PolicyIterationResult,
    evaluate_policy,
    policy_iteration,
)
from repro.optimize.rollout import (
    ROLLOUT_OBJECTIVES,
    RolloutResult,
    default_candidates,
    rollout_optimize,
)
from repro.optimize.stats import OptimizerStats, global_optimizer_stats

__all__ = [
    "LONGRUN_OBJECTIVES",
    "MAX_ACTIONS_PER_STATE",
    "MAX_CTMDP_STATES",
    "OptimizeError",
    "OptimizerStats",
    "PolicyEvaluation",
    "PolicyIterationResult",
    "ROLLOUT_OBJECTIVES",
    "RepairCTMDP",
    "RepairPolicy",
    "RolloutResult",
    "default_candidates",
    "evaluate_policy",
    "global_optimizer_stats",
    "policy_iteration",
    "rollout_optimize",
]
