"""Rollout optimization of finite-horizon repair objectives.

In the spirit of Sarkale et al.'s post-hazard recovery rollout, finite-
horizon objectives — survivability at ``t`` (the paper's Fig. 4/5/8/9
measure) and expected accumulated cost (Fig. 7/11) — are improved
iteratively from the best fixed strategy:

1. **Evaluate** the current policy *from every state at once*: one
   backward value sweep (:func:`repro.analysis.executor.backward_values`)
   on the induced chain — target states absorbed for survivability, the
   policy's cost rates accumulated for cost — yields the per-state value
   function at every grid point from a **single** value column.  All
   ``K`` candidate one-step deviations of a round are scored off these
   values, so ``K`` candidates cost one sweep, not ``K``.
2. **Score** every admissible action of every state by its generator-row
   Q-value against the horizon values
   (:meth:`~repro.optimize.ctmdp.RepairCTMDP.action_q_values`) and take the
   greedy policy.  Survivability keeps the current action at target states
   (post-target behaviour cannot change a reachability probability).
3. **Safeguard**: the greedy policy is accepted only if its *exact*
   re-evaluation (step 1 of the next round) improves the objective at the
   disaster state; otherwise the best policy seen so far is kept.  Because
   the iteration starts from the best fixed-strategy baseline, the result
   is ≥ every fixed strategy by construction — the stationary greedy step
   is a heuristic for the inherently time-dependent finite-horizon optimum,
   but it can never *lose* to the baselines.

All baselines and iterates are evaluated on induced chains of the same
CTMDP (same crew pool), so values are apples-to-apples.  Every evaluation
runs against one :class:`~repro.ctmc.artifacts.ArtifactCache` — the one the
caller hands over, or a private one per call — so rounds that revisit a
policy reuse its transforms, operators and Fox–Glynn tables, and a shared
cache makes re-optimization warm (same chains → same fingerprints).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

from repro.analysis.executor import backward_values
from repro.arcade.model import Disaster
from repro.casestudy.facility import PAPER_STRATEGIES
from repro.ctmc.artifacts import ArtifactCache
from repro.ctmc.uniformization import DEFAULT_EPSILON, UniformizationStats
from repro.optimize.ctmdp import OptimizeError, RepairCTMDP, RepairPolicy
from repro.optimize.stats import OptimizerStats, global_optimizer_stats

#: Finite-horizon objectives the rollout optimizer handles.
ROLLOUT_OBJECTIVES = ("survivability", "accumulated_cost")


@dataclass
class RolloutResult:
    """Outcome of :func:`rollout_optimize`."""

    policy: RepairPolicy
    objective: str
    value: float
    times: np.ndarray
    curve: np.ndarray
    baselines: dict[str, float]
    baseline_curves: dict[str, np.ndarray]
    base_label: str
    iterations: int
    converged: bool

    @property
    def improved(self) -> bool:
        """Whether the optimizer beat the best fixed-strategy baseline."""
        return self.policy.name not in self.baselines

    @property
    def best_baseline(self) -> float:
        return self.baselines[self.base_label]


def _is_better(value: float, reference: float, objective: str, tolerance: float) -> bool:
    if objective == "survivability":
        return value > reference + tolerance
    return value < reference - tolerance


def default_candidates(ctmdp: RepairCTMDP) -> dict[str, RepairPolicy]:
    """The paper's five strategies as policies (skipping unrepresentable ones).

    With a ``crew_limit`` below a strategy's crew demand (e.g. ``DED`` on a
    capped CTMDP) that strategy simply drops out of the baseline set.
    """
    candidates: dict[str, RepairPolicy] = {}
    for configuration in PAPER_STRATEGIES:
        try:
            policy = ctmdp.strategy_policy(configuration)
        except OptimizeError:
            continue
        candidates[configuration.label] = policy
    if not candidates:
        raise OptimizeError("no paper strategy is representable in this CTMDP")
    return candidates


def rollout_optimize(
    ctmdp: RepairCTMDP,
    objective: str,
    *,
    disaster: Disaster | str,
    horizon: float,
    threshold: float | Fraction | None = None,
    points: int = 33,
    candidates: Mapping[str, RepairPolicy] | None = None,
    max_iterations: int = 8,
    tolerance: float = 1e-9,
    artifacts=None,
    stats: OptimizerStats | None = None,
) -> RolloutResult:
    """Optimize a finite-horizon objective by coalesced rollout.

    Parameters
    ----------
    objective:
        ``"survivability"`` (maximize ``P[reach service >= threshold by
        horizon]``; requires ``threshold``) or ``"accumulated_cost"``
        (minimize expected accumulated cost over ``[0, horizon]``).
    disaster:
        The start state (Given-Occurrence-Of-Disaster, like the paper).
    candidates:
        Label → policy baselines; defaults to the representable paper
        strategies.  The best baseline seeds the rollout and lower-bounds
        the result.
    artifacts:
        The :class:`~repro.ctmc.artifacts.ArtifactCache` serving absorbing
        transforms, operators and Fox–Glynn tables to every evaluation;
        without one the call makes a private cache.  Pass a shared one to
        reuse them across re-optimizations.
    """
    if objective not in ROLLOUT_OBJECTIVES:
        raise OptimizeError(
            f"unknown finite-horizon objective {objective!r}; "
            f"expected one of {ROLLOUT_OBJECTIVES}"
        )
    survivability = objective == "survivability"
    if survivability and threshold is None:
        raise OptimizeError("survivability rollout needs a service-level threshold")
    stats = stats if stats is not None else global_optimizer_stats()
    artifacts = artifacts if artifacts is not None else ArtifactCache()
    times = np.linspace(0.0, float(horizon), int(points))
    initial_state = ctmdp.disaster_state(disaster)
    target = ctmdp.states_with_service_at_least(threshold) if survivability else None
    sweep_stats = UniformizationStats()

    def evaluate(policy: RepairPolicy) -> np.ndarray:
        """``(num_states, len(times))`` values of ``policy`` from every state."""
        if ctmdp.chain_is_cached(policy):
            stats.cache_hits += 1
        chain = ctmdp.induced_chain(policy)
        if survivability:
            chain = artifacts.transformed_chain(chain, target)
            seed = target.astype(float)
        else:
            seed = ctmdp.policy_cost(policy)
        values = backward_values(
            chain,
            seed,
            times,
            cumulative=not survivability,
            epsilon=DEFAULT_EPSILON,
            stats=sweep_stats,
            artifacts=artifacts,
        )
        return (np.clip(values, 0.0, 1.0) if survivability else values).T

    # --- baselines: every fixed strategy, read at the disaster state -----
    candidates = dict(candidates) if candidates is not None else default_candidates(ctmdp)
    baselines: dict[str, float] = {}
    baseline_curves: dict[str, np.ndarray] = {}
    for label, policy in candidates.items():
        curve = evaluate(policy)[initial_state].copy()
        baseline_curves[label] = curve
        baselines[label] = float(curve[-1])
        stats.baseline_evaluations += 1
    chooser = max if survivability else min
    base_label = chooser(baselines, key=baselines.__getitem__)

    best_policy = candidates[base_label]
    best_value = baselines[base_label]
    best_curve = baseline_curves[base_label]

    # --- evaluate / score / safeguard loop -------------------------------
    policy = best_policy
    converged = False
    iterations = 0
    for iteration in range(1, max_iterations + 1):
        iterations = iteration
        stats.rollout_iterations += 1
        sweeps_before = sweep_stats.sweeps
        values = evaluate(policy)
        stats.coalesced_sweeps += sweep_stats.sweeps - sweeps_before
        stats.policy_evaluations += 1
        value = float(values[initial_state, -1])
        if _is_better(value, best_value, objective, tolerance):
            best_policy, best_value = policy, value
            best_curve = values[initial_state].copy()
        elif iteration > 1:
            # The previous greedy step did not improve on exact
            # re-evaluation: keep the best policy seen and stop.
            converged = True
            break
        greedy, changed = ctmdp.greedy_policy(
            values[:, -1],
            costs=None if survivability else ctmdp.action_cost,
            maximize=survivability,
            current=policy.actions,
            frozen=target,
            tolerance=1e-12,
            name=f"rollout-{objective}-{iteration}",
        )
        stats.candidate_actions += ctmdp.total_actions - ctmdp.num_states
        if changed == 0:
            converged = True
            break
        policy = greedy
    return RolloutResult(
        policy=best_policy,
        objective=objective,
        value=best_value,
        times=times,
        curve=best_curve,
        baselines=baselines,
        baseline_curves=baseline_curves,
        base_label=base_label,
        iterations=iterations,
        converged=converged,
    )
