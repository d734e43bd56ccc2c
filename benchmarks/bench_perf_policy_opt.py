"""Perf benchmark — repair-policy optimization on the batched evaluator.

Five gates over :mod:`repro.optimize`, on the paper's own facility lines:

* **Policy iteration converges on Line 1 and Line 2** and its optimized
  long-run unavailability is at least as good as the best of the five
  fixed strategies (to 1e-9) — on the *same* CTMDP, so costs and crew
  pools are apples-to-apples.

* **Rollout dominates the fixed strategies** on two Line 1, Disaster 1
  objectives: the Fig. 4/5 survivability (recovery to X1 within 4.5 h)
  and the Fig. 7 accumulated cost over 10 h.  The optimized value is
  >= (survivability) or <= (cost) the best fixed strategy's, to 1e-9, by
  construction; the gate catches safeguard regressions.

* **Candidate coalescing**: all K one-step deviations of a rollout round
  are scored off one backward value sweep, so the sweeps spent must stay
  within a small multiple of the iteration count — not within a multiple
  of K (K is ~173k on Line 1).

* **One value column per policy**: every operator application of a
  rollout carries one column (the process-wide ``ENGINE_STATS`` matvec
  delta equals its apply delta), not an identity block of initial
  distributions.

* **Warm re-optimization** with a shared :class:`repro.service.ArtifactCache`
  must add zero ``factorization`` and zero ``quotient`` misses: same
  chains -> same fingerprints -> every solver artifact is reused.

Measurements land in ``BENCH_policy_opt.json`` (override with
``REPRO_BENCH_POLICY_JSON``) for the CI artifact upload.
``REPRO_BENCH_FAST=1`` coarsens the rollout grids.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from bench_support import run_once

from repro.casestudy.experiments import line_service_interval_lower
from repro.casestudy.facility import DISASTER_1, LINE1, LINE2, build_line
from repro.ctmc.linsolve import SolverEngine
from repro.ctmc.uniformization import ENGINE_STATS
from repro.optimize import (
    OptimizerStats,
    RepairCTMDP,
    default_candidates,
    evaluate_policy,
    policy_iteration,
    rollout_optimize,
)
from repro.service import ArtifactCache

FAST = bool(os.environ.get("REPRO_BENCH_FAST"))
ROLLOUT_POINTS = 17 if FAST else 33
BENCH_JSON = Path(os.environ.get("REPRO_BENCH_POLICY_JSON", "BENCH_policy_opt.json"))


def _record(key: str, payload: dict) -> None:
    """Merge one gate's measurements into the shared JSON document."""
    document = {}
    if BENCH_JSON.exists():
        try:
            document = json.loads(BENCH_JSON.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            document = {}
    document[key] = payload
    BENCH_JSON.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _longrun_gate(line: str) -> dict:
    ctmdp = RepairCTMDP(build_line(line))
    engine = SolverEngine()
    stats = OptimizerStats()
    gains = {}
    best_label, best_policy = None, None
    for label, policy in default_candidates(ctmdp).items():
        gains[label] = evaluate_policy(
            ctmdp, policy, engine=engine, stats=stats
        ).gains["unavailability"]
        if best_label is None or gains[label] < gains[best_label]:
            best_label, best_policy = label, policy
    result = policy_iteration(
        ctmdp,
        objective="unavailability",
        initial=best_policy,
        engine=engine,
        stats=stats,
    )
    assert result.converged, f"policy iteration did not converge on {line}"
    assert result.gain <= min(gains.values()) + 1e-9, (
        f"optimized unavailability {result.gain:.12e} worse than best fixed "
        f"strategy {min(gains.values()):.12e} on {line}"
    )
    return {
        "states": ctmdp.num_states,
        "actions": ctmdp.total_actions,
        "iterations": result.iterations,
        "optimized_unavailability": result.gain,
        "best_fixed": {best_label: gains[best_label]},
        "policy_evaluations": stats.policy_evaluations,
    }


def test_policy_iteration_converges_and_dominates_both_lines(benchmark):
    """PI gate: converge on Line 1 and Line 2, optimized <= best fixed + 1e-9."""

    def both_lines():
        return {LINE2: _longrun_gate(LINE2), LINE1: _longrun_gate(LINE1)}

    payload = run_once(benchmark, both_lines)
    print()
    for line, entry in payload.items():
        print(
            f"{line}: {entry['states']} states / {entry['actions']} actions, "
            f"PI converged in {entry['iterations']} iteration(s), "
            f"unavailability {entry['optimized_unavailability']:.9e} "
            f"(best fixed {entry['best_fixed']})"
        )
    _record("policy_iteration", payload)


def _rollout_gate(benchmark, objective: str, horizon: float, threshold=None):
    """One cold Line 1 / Disaster 1 rollout under every rollout gate, then warm."""
    ctmdp = RepairCTMDP(build_line(LINE1))
    artifacts = ArtifactCache()
    stats = OptimizerStats()
    kwargs = dict(
        disaster=DISASTER_1,
        horizon=horizon,
        threshold=threshold,
        points=ROLLOUT_POINTS,
        artifacts=artifacts,
    )

    matvecs, applies = ENGINE_STATS.matvecs, ENGINE_STATS.applies
    result = run_once(
        benchmark,
        rollout_optimize,
        ctmdp,
        objective,
        stats=stats,
        **kwargs,
    )
    matvecs = ENGINE_STATS.matvecs - matvecs
    applies = ENGINE_STATS.applies - applies

    survivability = objective == "survivability"
    for label, value in result.baselines.items():
        if survivability:
            dominates = result.value >= value - 1e-9
        else:
            dominates = result.value <= value + 1e-9
        assert dominates, (
            f"optimized {objective} {result.value:.12e} loses to fixed "
            f"strategy {label} ({value:.12e})"
        )
    # K candidates per round, a small multiple of one sweep total.
    deviations = ctmdp.total_actions - ctmdp.num_states
    assert stats.candidate_actions >= deviations
    assert stats.coalesced_sweeps <= 2 * stats.rollout_iterations, (
        f"{stats.coalesced_sweeps} sweeps for {stats.rollout_iterations} "
        f"rollout rounds: candidate deviations are not riding shared sweeps"
    )
    assert applies > 0 and matvecs == applies, (
        f"{matvecs} matvecs on {applies} operator applications: a policy "
        f"evaluation carries more than one value column"
    )

    # Warm re-optimization: the shared artifact cache must serve everything.
    before = artifacts.stats()
    warm = rollout_optimize(ctmdp, objective, stats=OptimizerStats(), **kwargs)
    deltas = artifacts.stats().misses_since(before)
    assert deltas.get("factorization", 0) == 0, deltas
    assert deltas.get("quotient", 0) == 0, deltas
    assert warm.value == result.value

    print()
    print(
        f"{objective} on {LINE1} over {horizon:g} h: optimized "
        f"{result.value:.9f} vs best fixed {result.best_baseline:.9f} "
        f"({result.base_label}); {stats.candidate_actions} candidate deviations "
        f"on {stats.coalesced_sweeps} coalesced sweeps "
        f"({stats.sweeps_saved} saved), {matvecs} matvecs on {applies} "
        f"applications; warm rerun misses: {deltas}"
    )
    return {
        "points": ROLLOUT_POINTS,
        "optimized": result.value,
        "best_fixed": {result.base_label: result.best_baseline},
        "rollout_iterations": stats.rollout_iterations,
        "candidate_actions": stats.candidate_actions,
        "coalesced_sweeps": stats.coalesced_sweeps,
        "sweeps_saved": stats.sweeps_saved,
        "matvecs": matvecs,
        "applies": applies,
        "warm_miss_deltas": deltas,
    }


def test_rollout_dominates_fig4_objective_with_coalesced_sweeps(benchmark):
    """Rollout + coalescing gates on the Fig. 4/5 objective (Line 1)."""
    payload = _rollout_gate(
        benchmark,
        "survivability",
        4.5,
        threshold=line_service_interval_lower(LINE1, 0),
    )
    _record("rollout_fig4_5", payload)


def test_rollout_dominates_fig7_objective_with_coalesced_sweeps(benchmark):
    """Rollout + coalescing gates on the Fig. 7 objective (Line 1, 10 h)."""
    payload = _rollout_gate(benchmark, "accumulated_cost", 10.0)
    _record("rollout_fig7", payload)
