"""The batched analysis session: plan once, sweep once per group.

:class:`AnalysisSession` is the front door of the batch architecture.
Callers declare :class:`~repro.analysis.requests.MeasureRequest` objects
(``add``/``request``), then ``execute()`` plans them into groups that share
a (chain, uniformization rate, grid, epsilon) signature and dispatches each
group as a single uniformization sweep — a whole figure family of the paper
(five repair strategies × disasters × service levels) costs one sweep per
distinct transformed chain instead of one per curve.
:meth:`AnalysisSession.run` is the one batch runner underneath: it returns
a result or an error per request, and ``execute()``, ``python -m repro``
and every flush of both scenario services go through it.

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

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import ClassVar

from repro.ctmc.artifacts import ArtifactCache
from repro.ctmc.linsolve import LinearSolveStats
from repro.ctmc.uniformization import DEFAULT_EPSILON, UniformizationStats
from repro.analysis.executor import execute_plan
from repro.analysis.planner import ExecutionPlan, build_plan, normalise_request
from repro.analysis.requests import MeasureRequest, MeasureResult
from repro.stats import Record


@dataclass
class SessionStats(Record):
    """Work counters aggregated over one or more ``run()`` calls.

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

    label: ClassVar[str] = "session"

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

    def absorb_plan(self, plan: ExecutionPlan) -> None:
        """Account for an executed plan's requests, groups and lumping.

        Called by :meth:`AnalysisSession.run` only, so every batch, from
        ``execute()`` or a service flush, is counted the same way.
        """
        self.requests += plan.num_requests
        self.groups += plan.num_groups
        self.lump_failures += plan.lump_failures
        for group in plan.groups:
            if group.lumped is not None:
                self.lumped_groups += 1
                self.lumped_states_before += group.chain.num_states
                self.lumped_states_after += group.lumped.num_blocks


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

    def run(
        self, requests: Sequence[MeasureRequest]
    ) -> list[MeasureResult | Exception]:
        """Validate, plan and run ``requests``: a result or an error per request.

        A request that fails :func:`~repro.analysis.planner.normalise_request`
        gets its error and never reaches the plan.  The others are planned
        together by :func:`build_plan` and run by :func:`execute_plan`, in
        which a unit that raises fails only its own members; an error while
        planning fails all of them.  The plan's, the engine's and the
        solver's counters are absorbed into :attr:`stats`.
        """
        outcomes: list[MeasureResult | Exception | None] = []
        valid: list[MeasureRequest] = []
        for request in requests:
            try:
                normalise_request(request)
            except Exception as error:
                outcomes.append(error)
            else:
                outcomes.append(None)
                valid.append(request)
        try:
            plan = build_plan(
                valid,
                lump=self.lump,
                default_epsilon=self.default_epsilon,
                artifacts=self.artifacts,
            )
        except Exception as error:
            return [error if outcome is None else outcome for outcome in outcomes]
        engine = UniformizationStats()
        linear = LinearSolveStats()
        results = iter(
            execute_plan(
                plan, artifacts=self.artifacts, engine_stats=engine, linear_stats=linear
            )
        )
        self.stats.absorb_plan(plan)
        self.stats.absorb_engine(engine)
        self.stats.absorb_linear(linear)
        return [next(results) if outcome is None else outcome for outcome in outcomes]

    def execute(self) -> list[MeasureResult]:
        """Run all registered requests; results in registration order.

        Raises the first failed request's error, after every other unit has
        run (see :meth:`run`).
        """
        outcomes = self.run(self._requests)
        for outcome in outcomes:
            if isinstance(outcome, Exception):
                raise outcome
        return outcomes
