"""Work counters for the repair-policy optimizers.

:class:`OptimizerStats` plays the role :class:`repro.analysis.SessionStats`
plays for sweeps: every policy-iteration and rollout run records how many
exact policy evaluations it paid for, how many one-step action deviations it
scored, and how many uniformization sweeps those deviations actually cost
after coalescing (the rollout scores all candidates of a round off the
per-state values of one backward value sweep, so ``K`` candidates ride 1
shared sweep instead of ``K``).  The difference is
:attr:`OptimizerStats.sweeps_saved` — the number the benchmark gates on.

A process-wide aggregate (:func:`global_optimizer_stats`) feeds the
Prometheus ``/metrics`` dump of the scenario service, so operators see
optimizer work next to sweep and cache counters.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class OptimizerStats:
    """Counters for one (or many aggregated) optimizer runs.

    Attributes
    ----------
    policy_improvements:
        Greedy improvement rounds performed by policy iteration.
    rollout_iterations:
        Evaluate/score rounds performed by the rollout optimizer.
    policy_evaluations:
        Exact evaluations of a concrete policy: gain/bias solves (policy
        iteration) or one-column backward value sweeps (rollout rounds).
    baseline_evaluations:
        Fixed-strategy policies evaluated as comparison baselines.
    candidate_actions:
        One-step action deviations scored via Q-values.  Each would cost a
        full policy evaluation if submitted naively.
    coalesced_sweeps:
        Uniformization sweeps actually spent scoring those candidates (the
        rollout rounds' backward value sweeps; baseline evaluations are
        not counted here).
    cache_hits:
        Induced chains and evaluations served from the optimizer-level
        memo instead of being rebuilt (artifact-cache hits underneath are
        counted by :class:`repro.service.CacheStats` as usual).
    """

    policy_improvements: int = 0
    rollout_iterations: int = 0
    policy_evaluations: int = 0
    baseline_evaluations: int = 0
    candidate_actions: int = 0
    coalesced_sweeps: int = 0
    cache_hits: int = 0

    # ------------------------------------------------------------------
    @property
    def sweeps_saved(self) -> int:
        """Sweeps avoided by scoring candidates off shared value blocks."""
        return max(0, self.candidate_actions - self.coalesced_sweeps)

    def absorb(self, other: "OptimizerStats") -> None:
        for spec in fields(self):
            setattr(self, spec.name, getattr(self, spec.name) + getattr(other, spec.name))

    def reset(self) -> None:
        for spec in fields(self):
            setattr(self, spec.name, 0)

    def summary(self) -> str:
        return (
            f"optimizer: {self.policy_evaluations} policy evaluations, "
            f"{self.policy_improvements} improvement rounds, "
            f"{self.rollout_iterations} rollout iterations, "
            f"{self.candidate_actions} candidate deviations on "
            f"{self.coalesced_sweeps} coalesced sweeps "
            f"({self.sweeps_saved} sweeps saved), "
            f"{self.baseline_evaluations} baselines, {self.cache_hits} memo hits"
        )

    def metrics(self, prefix: str = "repro_optimizer") -> str:
        """Prometheus text-format counters (appended to ``/metrics``)."""
        counters = {
            "policy_improvements_total": self.policy_improvements,
            "rollout_iterations_total": self.rollout_iterations,
            "policy_evaluations_total": self.policy_evaluations,
            "baseline_evaluations_total": self.baseline_evaluations,
            "candidate_actions_total": self.candidate_actions,
            "coalesced_sweeps_total": self.coalesced_sweeps,
            "sweeps_saved_total": self.sweeps_saved,
            "memo_hits_total": self.cache_hits,
        }
        lines = []
        for name, value in counters.items():
            lines.append(f"# TYPE {prefix}_{name} counter")
            lines.append(f"{prefix}_{name} {value}")
        return "\n".join(lines)


#: Process-wide aggregate served by the scenario service's ``/metrics``.
_GLOBAL_STATS = OptimizerStats()


def global_optimizer_stats() -> OptimizerStats:
    """The process-wide :class:`OptimizerStats` aggregate."""
    return _GLOBAL_STATS
