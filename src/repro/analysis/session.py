"""The batched analysis session: plan once, sweep once per group.

:class:`AnalysisSession` is the front door of the batch architecture.
Callers declare :class:`~repro.analysis.requests.MeasureRequest` objects
(``add``/``request``), then ``execute()`` plans them into groups that share
a (chain, uniformization rate, grid, epsilon) signature and dispatches each
group as a single uniformization sweep — a whole figure family of the paper
(five repair strategies × disasters × service levels) costs one sweep per
distinct transformed chain instead of one per curve.

A quick example — both Figure-4 curves of one strategy in one plan::

    session = AnalysisSession()
    for disaster in ("disaster1", "disaster2"):
        session.request(
            chain,
            times,
            kind=MeasureKind.REACHABILITY,
            target=recovered_states,
            initial_distributions=space.initial_distribution_for_disaster(disaster),
            tag=disaster,
        )
    results = session.execute()      # one sweep: both disasters share it
    print(session.stats.summary())

The session records what it did in :class:`SessionStats` (groups, sweeps,
matvec/flop counters, lumping compression), which the CLI prints and the
benchmarks gate on.

Every plan and sweep of a session runs against one
:class:`~repro.ctmc.artifacts.ArtifactCache`: the one it was handed, or a
private one it makes, so its groups share transforms, quotients, operators,
Fox–Glynn tables and factorizations either way.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.ctmc.artifacts import ArtifactCache
from repro.ctmc.linsolve import LinearSolveStats
from repro.ctmc.uniformization import DEFAULT_EPSILON, UniformizationStats
from repro.analysis.executor import execute_plan
from repro.analysis.planner import ExecutionPlan, build_plan
from repro.analysis.requests import MeasureRequest, MeasureResult


@dataclass
class SessionStats:
    """Work counters aggregated over one or more ``execute()`` calls.

    ``matvecs``/``applies``/``sparse_flops``/``sweeps`` follow the engine's
    conventions (see
    :class:`repro.ctmc.uniformization.UniformizationStats`); the lumping
    counters record how many groups ran on a quotient chain and how much
    state space that removed.  ``factorizations``/``linear_solves``/
    ``solved_columns`` mirror the long-run solver engine
    (:class:`repro.ctmc.linsolve.LinearSolveStats`): LU factorizations
    actually built (warm cache hits do not count), triangular solve calls
    and the right-hand-side columns they carried.  ``equivalent_nnz`` and
    the ``*_seconds`` timers are the work and wall-clock accounting of the
    sweep and factorization backends (:mod:`repro.ctmc.engines`), the same
    on either backend; ``dense_factorizations`` counts how many of the LU
    builds took the dense LAPACK path.
    """

    requests: int = 0
    groups: int = 0
    sweeps: int = 0
    matvecs: int = 0
    applies: int = 0
    sparse_flops: int = 0
    equivalent_nnz: int = 0
    sweep_seconds: float = 0.0
    factorizations: int = 0
    dense_factorizations: int = 0
    linear_solves: int = 0
    solved_columns: int = 0
    factor_seconds: float = 0.0
    solve_seconds: float = 0.0
    lumped_groups: int = 0
    lumped_states_before: int = 0
    lumped_states_after: int = 0
    lump_failures: int = 0

    def absorb_engine(self, engine: UniformizationStats) -> None:
        self.sweeps += engine.sweeps
        self.matvecs += engine.matvecs
        self.applies += engine.applies
        self.sparse_flops += engine.sparse_flops
        self.equivalent_nnz += engine.equivalent_nnz
        self.sweep_seconds += engine.sweep_seconds

    def absorb_linear(self, linear: LinearSolveStats) -> None:
        self.factorizations += linear.factorizations
        self.dense_factorizations += linear.dense_factorizations
        self.linear_solves += linear.solves
        self.solved_columns += linear.columns
        self.factor_seconds += linear.factor_seconds
        self.solve_seconds += linear.solve_seconds

    def absorb(self, other: "SessionStats") -> None:
        """Accumulate another stats object field-by-field.

        Used by the sharded scenario service to merge per-shard session
        counters into one aggregate for ``/metrics``.
        """
        self.requests += other.requests
        self.groups += other.groups
        self.sweeps += other.sweeps
        self.matvecs += other.matvecs
        self.applies += other.applies
        self.sparse_flops += other.sparse_flops
        self.equivalent_nnz += other.equivalent_nnz
        self.sweep_seconds += other.sweep_seconds
        self.factorizations += other.factorizations
        self.dense_factorizations += other.dense_factorizations
        self.linear_solves += other.linear_solves
        self.solved_columns += other.solved_columns
        self.factor_seconds += other.factor_seconds
        self.solve_seconds += other.solve_seconds
        self.lumped_groups += other.lumped_groups
        self.lumped_states_before += other.lumped_states_before
        self.lumped_states_after += other.lumped_states_after
        self.lump_failures += other.lump_failures

    def absorb_plan(self, plan: ExecutionPlan) -> None:
        """Account for an executed plan's requests, groups and lumping.

        The single bookkeeping site shared by :meth:`AnalysisSession.execute`
        and the scenario service's flush, so the two never drift.
        """
        self.requests += plan.num_requests
        self.groups += plan.num_groups
        self.lump_failures += plan.lump_failures
        for group in plan.groups:
            if group.lumped is not None:
                self.lumped_groups += 1
                self.lumped_states_before += group.chain.num_states
                self.lumped_states_after += group.lumped.num_blocks

    def summary(self) -> str:
        """One line for CLI output and logs."""
        parts = [
            f"requests={self.requests}",
            f"groups={self.groups}",
            f"sweeps={self.sweeps}",
            f"matvecs={self.matvecs}",
            f"applies={self.applies}",
            f"sparse_flops={self.sparse_flops}",
        ]
        if self.equivalent_nnz:
            parts.append(f"equivalent_nnz={self.equivalent_nnz}")
        if self.sweep_seconds:
            parts.append(f"sweep_seconds={self.sweep_seconds:.3f}")
        if self.linear_solves or self.factorizations:
            parts.append(
                f"factorizations={self.factorizations}"
                f" linear_solves={self.linear_solves}"
                f" solved_columns={self.solved_columns}"
            )
        if self.dense_factorizations:
            parts.append(f"dense_factorizations={self.dense_factorizations}")
        if self.lumped_groups:
            parts.append(
                f"lumped {self.lumped_groups} groups "
                f"({self.lumped_states_before}->{self.lumped_states_after} states)"
            )
        if self.lump_failures:
            parts.append(f"lump_failures={self.lump_failures}")
        return "session: " + " ".join(parts)


class AnalysisSession:
    """Collect measure requests, plan shared sweeps, execute them.

    Parameters
    ----------
    lump:
        Sweep or solve each group on the ordinary-lumpability quotient of
        its chain, partitioned once per chain (the quotient preserves every
        requested measure; see :func:`repro.analysis.planner._lump_group`).
        Covers regular bounded reachability and rewards, interval-until
        bundles (both phases on one quotient) and long-run groups; per-state
        distribution requests stay unlumped.  A failed quotient build
        degrades its groups to their full chains: the *first* failure warns
        and increments ``SessionStats.lump_failures``, while warm repeats
        hit the cached tombstone and skip the refinement silently — the
        failure is counted once per cold build, not once per plan.
    epsilon:
        Default Poisson-truncation error for requests that do not set one.
    stats:
        Optional shared :class:`SessionStats`; several sessions (e.g. all
        experiments of one CLI invocation) may accumulate into one object.
    artifacts:
        The :class:`~repro.ctmc.artifacts.ArtifactCache` the session plans
        and executes against: absorbing transforms, lumping quotients,
        uniformized operators, Fox–Glynn tables and long-run solver
        artifacts are looked up there by chain fingerprint.  Without one
        the session makes a private cache, shared by its own groups and
        ``execute()`` calls only; pass a shared one to reuse artifacts
        across sessions.
    """

    def __init__(
        self,
        *,
        lump: bool = False,
        epsilon: float = DEFAULT_EPSILON,
        stats: SessionStats | None = None,
        artifacts=None,
    ) -> None:
        self.lump = lump
        self.default_epsilon = float(epsilon)
        self.stats = stats if stats is not None else SessionStats()
        self.artifacts = artifacts if artifacts is not None else ArtifactCache()
        self._requests: list[MeasureRequest] = []

    # ------------------------------------------------------------------
    def add(self, request: MeasureRequest) -> int:
        """Register a request; returns its index into ``execute()``'s result list."""
        self._requests.append(request)
        return len(self._requests) - 1

    def extend(self, requests: Iterable[MeasureRequest]) -> list[int]:
        """Register several requests at once."""
        return [self.add(request) for request in requests]

    def request(self, chain, times, **fields) -> int:
        """Build a :class:`MeasureRequest` from keyword fields and register it."""
        return self.add(MeasureRequest(chain=chain, times=times, **fields))

    def __len__(self) -> int:
        return len(self._requests)

    @property
    def requests(self) -> tuple[MeasureRequest, ...]:
        return tuple(self._requests)

    # ------------------------------------------------------------------
    def plan(self) -> ExecutionPlan:
        """Group the registered requests without executing them."""
        return build_plan(
            self._requests,
            lump=self.lump,
            default_epsilon=self.default_epsilon,
            artifacts=self.artifacts,
        )

    def execute(self) -> list[MeasureResult]:
        """Plan and run all registered requests; results in registration order."""
        plan = self.plan()
        engine = UniformizationStats()
        linear = LinearSolveStats()
        results = execute_plan(
            plan, artifacts=self.artifacts, engine_stats=engine, linear_stats=linear
        )
        self.stats.absorb_plan(plan)
        self.stats.absorb_engine(engine)
        self.stats.absorb_linear(linear)
        return results
