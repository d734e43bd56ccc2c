"""Work counters for the repair-policy optimizers.

:class:`OptimizerStats` plays the role :class:`repro.analysis.SessionStats`
plays for sweeps: every policy-iteration and rollout run records how many
exact policy evaluations it paid for, how many one-step action deviations it
scored, and how many uniformization sweeps those deviations actually cost
after coalescing (the rollout scores all candidates of a round off the
per-state values of one backward value sweep, so ``K`` candidates ride 1
shared sweep instead of ``K``).  The difference is
:attr:`OptimizerStats.sweeps_saved` — the number the benchmark gates on.

A process-wide aggregate (:func:`global_optimizer_stats`) is one of the
records ``GET /metrics`` renders on either scenario-service front (and
``serve --metrics`` and ``optimize --metrics`` print), so operators see
optimizer work next to sweep and cache counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.stats import COUNTER, Record, counter


@dataclass
class OptimizerStats(Record):
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
        counted by :class:`repro.service.CacheStats` as usual).  Exported
        as ``repro_optimizer_memo_hits_total``.
    """

    label: ClassVar[str] = "optimizer"
    derived: ClassVar[dict[str, str]] = {"sweeps_saved": COUNTER}

    policy_improvements: int = 0
    rollout_iterations: int = 0
    policy_evaluations: int = 0
    baseline_evaluations: int = 0
    candidate_actions: int = 0
    coalesced_sweeps: int = 0
    cache_hits: int = counter(family="repro_optimizer_memo_hits")

    # ------------------------------------------------------------------
    @property
    def sweeps_saved(self) -> int:
        """Sweeps avoided by scoring candidates off shared value blocks."""
        return max(0, self.candidate_actions - self.coalesced_sweeps)


#: Process-wide aggregate that ``/metrics`` renders on either front.
_GLOBAL_STATS = OptimizerStats()


def global_optimizer_stats() -> OptimizerStats:
    """The process-wide :class:`OptimizerStats` aggregate."""
    return _GLOBAL_STATS
