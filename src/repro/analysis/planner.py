"""Planning: group compatible measure requests into shared sweeps.

Two requests can ride the same uniformization sweep exactly when they walk
the same vector-power sequence, i.e. when they agree on

* the operating chain — the request's chain after the measure-specific
  transformation (reachability absorbs its decided states), compared by
  the base chain's content fingerprint (never object identity, so an
  unpickled or rebuilt copy still merges) plus the transformation
  signature,
* the uniformization rate (derived from the operating chain),
* the time grid (bit-for-bit), and
* the truncation error ``epsilon``.

Requests that differ in any of these are never merged; requests that agree
may still differ in initial distributions and reward vectors, which the
executor stacks into the sweep's batch axes.

Long-run requests (``STEADY_STATE``, ``UNBOUNDED_REACHABILITY``,
``REACHABILITY_REWARD``) never sweep: they are grouped by (chain
fingerprint, state-subset signature) instead, so the executor can batch
all their right-hand-side columns against one cached LU factorization
(:mod:`repro.ctmc.linsolve`).

The planner can additionally run ordinary lumpability
(:mod:`repro.ctmc.lumping`) on each group's operating chain before the
sweep (``lump=True``).  The lumping partition is seeded with exactly the
vectors the group's requests observe — target indicator vectors and reward
vectors — so every observable is block-constant and the quotient preserves
all requested measures; the (typically much smaller) quotient chain then
shrinks every product of the sweep.  Lumping now covers every group kind
except full-distribution requests:

* regular sweep groups quotient their operating chain (as before);
* long-run groups quotient the base chain seeded with their target/safe
  indicators and reward vectors — ordinary lumpability preserves
  steady-state observables, unbounded reachability values and reachability
  rewards, so the BSCC decomposition and the restricted solves all run on
  the quotient (``S=?``-per-state and other full-distribution requests
  stay unlumped);
* interval-until groups quotient the *target-absorbed* chain for the
  backward value sweep here (seeded with the target indicator); the
  executor builds a second quotient of the safe-restricted chain for the
  forward phase, seeded with the quantized phase-2 value vectors (see
  :func:`repro.analysis.executor._execute_interval_bundle`).

Groups containing ``TRANSIENT`` requests are never lumped (their full
distributions live on the original state space).  A quotient build that
*fails* degrades the group to its full chain; with an artifact cache
attached the failure is recorded as a :class:`QuotientTombstone` under the
same key, so warm plans skip the doomed refinement silently instead of
re-failing (and re-warning, and re-counting) on every plan.
"""

from __future__ import annotations

import hashlib
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np
from scipy import sparse

from repro.ctmc.ctmc import CTMC, CTMCError
from repro.ctmc.engines import (
    EngineSelector,
    default_engine_mode as process_default_engine_mode,
    normalise_engine_mode,
)
from repro.ctmc.lumping import lump_ctmc, lumping_partition
from repro.ctmc.uniformization import DEFAULT_EPSILON
from repro.analysis.requests import (
    LONGRUN_KINDS,
    REACHABILITY_KINDS,
    REWARD_KINDS,
    MeasureKind,
    MeasureRequest,
)


@dataclass
class PlannedRequest:
    """A validated request with its derived vectors, ready for execution."""

    index: int
    request: MeasureRequest
    kind: MeasureKind  # effective kind (U[0,t] is planned as plain reachability)
    times: np.ndarray
    initials: np.ndarray  # (num_initials, num_states) on the original chain
    squeeze: bool
    target_mask: np.ndarray | None = None
    safe_mask: np.ndarray | None = None
    rewards: np.ndarray | None = None


@dataclass
class LumpedChain:
    """A quotient chain plus the projections needed to use it."""

    quotient: CTMC
    partition: np.ndarray  # (num_states,) block index per state
    representatives: np.ndarray  # (num_blocks,) one member state per block
    aggregation: sparse.csr_matrix  # (num_blocks, num_states) 0/1 matrix

    @property
    def num_blocks(self) -> int:
        return self.quotient.num_states

    def project_distributions(self, block: np.ndarray) -> np.ndarray:
        """Sum each distribution's mass per quotient block: ``(B, n) -> (B, n')``."""
        return np.ascontiguousarray((self.aggregation @ block.T).T)

    def project_statewise(self, vector: np.ndarray) -> np.ndarray:
        """Restrict a block-constant state vector to one value per block."""
        return vector[self.representatives]

    def lift_statewise(self, vector: np.ndarray) -> np.ndarray:
        """Expand per-block values back to per-state (inverse of
        :meth:`project_statewise` on block-constant vectors)."""
        return vector[..., self.partition]


@dataclass
class ExecutionGroup:
    """Requests that will share one uniformization sweep.

    ``engine`` is the numeric backend the sweep (or the long-run solver)
    will use.  For regular sweep groups :func:`build_plan` resolves
    ``"auto"`` through the :class:`repro.ctmc.engines.EngineSelector`
    against the chain actually swept (the lumping quotient when one
    exists), so the executor always sees a concrete backend; long-run
    groups keep the requested mode and let the solver pick per restricted
    system, and interval-until groups keep it too because their two phases
    sweep two *different* transformed chains (the executor resolves per
    phase).

    ``lump`` records whether lumping was requested for the plan at all —
    the executor needs it for the interval forward-phase quotient, which
    only exists after the backward phase produced its value vectors (so
    ``lumped`` alone, which may legitimately be ``None`` when nothing
    collapsed, cannot carry the request).
    """

    chain: CTMC  # the operating chain (after the absorbing transform)
    rate: float
    times: np.ndarray
    epsilon: float
    members: list[PlannedRequest] = field(default_factory=list)
    interval: bool = False
    longrun: bool = False
    lumped: LumpedChain | None = None
    lump: bool = False
    engine: str = "auto"


@dataclass
class ExecutionPlan:
    """The grouping the session will execute.

    ``batched`` records the planning mode: with ``False`` (the comparison
    mode) the executor must also refrain from bundling interval groups, so
    the per-request baseline really runs every sweep independently.
    ``lump_failures`` counts groups whose quotient build crashed and was
    degraded to the full chain (see :func:`build_plan`).
    """

    groups: list[ExecutionGroup]
    num_requests: int
    batched: bool = True
    lump_failures: int = 0

    @property
    def num_groups(self) -> int:
        return len(self.groups)


def normalise_request(request: MeasureRequest, index: int = 0) -> PlannedRequest:
    """Validate one request and derive its vectors (masks, rewards, initials).

    Raises :class:`~repro.ctmc.ctmc.CTMCError` on an invalid request.  The
    scenario service calls this per submission so a poisoned request fails
    its own future instead of aborting a whole coalesced batch.
    """
    times = np.asarray(request.times, dtype=float)
    if times.ndim != 1:
        raise CTMCError("time grid must be one-dimensional")
    if request.engine is not None:
        normalise_engine_mode(request.engine)
    kind = request.kind
    if kind in LONGRUN_KINDS:
        if times.size:
            raise CTMCError(
                f"{kind.value} is a long-run measure and takes no time grid; "
                "pass times=()"
            )
        if request.lower:
            raise CTMCError(
                f"lower bound only applies to interval reachability, not {kind.value}"
            )
        return _normalise_longrun(request, kind, index)
    if not np.all(np.isfinite(times)):
        raise CTMCError("time points must be finite")
    if np.any(times < 0):
        raise CTMCError("time points must be non-negative")
    initials, squeeze = request.initial_block()
    if kind is MeasureKind.INTERVAL_REACHABILITY:
        if request.lower < 0:
            raise CTMCError("interval lower bound must be non-negative")
        if times.size and float(times.min()) < request.lower - 1e-12:
            raise CTMCError(
                "interval-until grid points must not lie below the lower bound"
            )
        if request.lower == 0.0:
            # U[0, t] is the plain bounded until: plan it as REACHABILITY so
            # it shares regular groups (and gets the correct CSL semantics —
            # target states outside `safe` still count as immediate wins).
            kind = MeasureKind.REACHABILITY
    elif request.lower:
        raise CTMCError(
            f"lower bound only applies to interval reachability, not {request.kind.value}"
        )
    planned = PlannedRequest(
        index=index,
        request=request,
        kind=kind,
        times=times,
        initials=initials,
        squeeze=squeeze,
    )
    if kind in REACHABILITY_KINDS:
        planned.target_mask = request.target_mask()
        planned.safe_mask = request.safe_mask()
    if kind in REWARD_KINDS:
        planned.rewards = request.reward_vector()
    return planned


def _normalise_longrun(
    request: MeasureRequest, kind: MeasureKind, index: int
) -> PlannedRequest:
    """Validate a long-run request; its single "grid point" is t = ∞."""
    initials, squeeze = request.initial_block()
    planned = PlannedRequest(
        index=index,
        request=request,
        kind=kind,
        times=np.array([np.inf]),
        initials=initials,
        squeeze=squeeze,
    )
    if kind is MeasureKind.STEADY_STATE:
        if (request.target is None) == (request.rewards is None):
            raise CTMCError(
                "a steady-state request observes exactly one of a target set "
                "(S=?) or a reward vector (R=?[S])"
            )
        if request.safe is not None:
            raise CTMCError("steady-state requests take no safe set")
        if request.target is not None:
            planned.target_mask = request.target_mask()
        else:
            planned.rewards = request.reward_vector()
    elif kind is MeasureKind.UNBOUNDED_REACHABILITY:
        if request.rewards is not None:
            raise CTMCError("unbounded-reachability requests take no rewards")
        planned.target_mask = request.target_mask()
        planned.safe_mask = request.safe_mask()
    else:  # REACHABILITY_REWARD
        if request.safe is not None:
            raise CTMCError("reachability-reward requests take no safe set")
        planned.target_mask = request.target_mask()
        planned.rewards = request.reward_vector()
    return planned


def build_plan(
    requests: Sequence[MeasureRequest],
    *,
    lump: bool = False,
    batched: bool = True,
    default_epsilon: float = DEFAULT_EPSILON,
    artifacts: Any | None = None,
    default_engine: str | None = None,
) -> ExecutionPlan:
    """Group ``requests`` into execution groups (see module docstring).

    With ``batched=False`` every request is placed in its own group — the
    per-curve behaviour of the pre-session API, kept for comparison runs
    and the CLI's ``--no-batched`` flag.

    ``artifacts`` is an optional :class:`repro.service.ArtifactCache` (any
    object with its ``transformed_chain``/``quotient`` methods works): when
    given, absorbing transforms and lumping quotients are looked up in the
    process-wide cache by chain fingerprint instead of being rebuilt per
    plan, so repeated portfolio sweeps reuse them across sessions.

    ``default_engine`` fills in for requests that leave their own knob at
    ``None``; ``None`` here falls through to the process-wide default
    (:func:`repro.ctmc.engines.default_engine_mode`, which the CLI's
    ``--engine`` flag sets).  The engine mode takes part in the group keys
    — requests on different backends never share a sweep — and ``"auto"``
    is resolved to a concrete backend per sweep group before the plan is
    returned, consulting the selector against the chain the executor will
    actually sweep (the lumping quotient when one exists).
    """
    plan_engine = (
        process_default_engine_mode()
        if default_engine is None
        else normalise_engine_mode(default_engine)
    )
    groups: dict[tuple, ExecutionGroup] = {}
    transformed_cache: dict[tuple[str, bytes], CTMC] = {}

    for index, request in enumerate(requests):
        planned = normalise_request(request, index)
        epsilon = request.epsilon if request.epsilon is not None else default_epsilon
        engine_mode = (
            normalise_engine_mode(request.engine)
            if request.engine is not None
            else plan_engine
        )
        base = request.chain

        if planned.kind in LONGRUN_KINDS:
            # Long-run requests never sweep: they group by (chain, subset
            # signature) so the executor can batch their RHS columns into
            # one cached-factorization solve.  Steady-state requests all
            # share the chain's one long-run distribution regardless of
            # their observables; unbounded reachability and reachability
            # rewards group per target(/safe) signature, which determines
            # the restricted linear system.
            if planned.kind is MeasureKind.STEADY_STATE:
                longrun_token = b"steady-state"
            elif planned.kind is MeasureKind.UNBOUNDED_REACHABILITY:
                longrun_token = b"".join(
                    (
                        b"unbounded",
                        planned.target_mask.tobytes(),
                        planned.safe_mask.tobytes(),
                    )
                )
            else:  # REACHABILITY_REWARD
                longrun_token = b"reach-reward" + planned.target_mask.tobytes()
            key = (base.fingerprint, longrun_token, planned.kind.value, engine_mode)
            if not batched:
                key = key + (index,)
            group = groups.get(key)
            if group is None:
                group = ExecutionGroup(
                    chain=base,
                    rate=0.0,
                    times=planned.times,
                    epsilon=float(epsilon),
                    longrun=True,
                    engine=engine_mode,  # the solver picks per system size
                )
                groups[key] = group
            group.members.append(planned)
            continue

        interval = planned.kind is MeasureKind.INTERVAL_REACHABILITY
        if planned.kind is MeasureKind.REACHABILITY:
            absorbing = planned.target_mask | ~(planned.safe_mask | planned.target_mask)
            transform_token = absorbing.tobytes()
            cache_key = (base.fingerprint, transform_token)
            operating = transformed_cache.get(cache_key)
            if operating is None:
                if artifacts is not None:
                    operating = artifacts.transformed_chain(base, absorbing)
                else:
                    operating = base.make_absorbing(absorbing)
                transformed_cache[cache_key] = operating
        elif interval:
            # Interval-until groups sweep two transformed chains; members are
            # merged only when they agree on the full (safe, target, lower)
            # signature, so the executor can batch their initials.
            operating = base
            transform_token = b"".join(
                (
                    b"interval",
                    planned.target_mask.tobytes(),
                    planned.safe_mask.tobytes(),
                    np.float64(request.lower).tobytes(),
                )
            )
        else:
            operating = base
            transform_token = b""

        key = (
            base.fingerprint,
            transform_token,
            float(operating.max_exit_rate),
            planned.times.tobytes(),
            float(epsilon),
            engine_mode,
        )
        if not batched:
            key = key + (index,)

        group = groups.get(key)
        if group is None:
            group = ExecutionGroup(
                chain=operating,
                rate=float(operating.max_exit_rate),
                times=planned.times,
                epsilon=float(epsilon),
                interval=interval,
                engine=engine_mode,
            )
            groups[key] = group
        group.members.append(planned)

    plan = ExecutionPlan(
        groups=list(groups.values()), num_requests=len(requests), batched=batched
    )
    if lump:
        for group in plan.groups:
            # Lumping is an optimisation: a failing refinement/quotient
            # build must never poison the plan (the scenario service
            # coalesces many clients into one), so the group degrades to
            # its full chain and the sweep stays exact — but visibly: the
            # first failure is warned about and counted into the session
            # stats.  With an artifact cache attached the failure leaves a
            # tombstone behind, so warm plans degrade *silently* (no
            # re-refinement, no repeat warning, no repeat count).
            group.lump = True
            try:
                group.lumped = _lump_group(group, artifacts)
            except Exception as error:
                group.lumped = None
                plan.lump_failures += 1
                warnings.warn(
                    f"lumping failed for a {group.chain.num_states}-state group "
                    f"({type(error).__name__}: {error}); sweeping the full chain",
                    RuntimeWarning,
                    stacklevel=2,
                )

    # The planner consults the selector: resolve "auto" per sweep group
    # against the chain the executor will actually sweep (the quotient once
    # lumping collapsed it), persisting the decision in the artifact cache.
    # Interval groups stay at "auto": their two phases sweep two different
    # transformed chains (each possibly quotiented), so the executor
    # resolves per phase against the chain each phase actually walks.
    selector = EngineSelector(artifacts)
    for group in plan.groups:
        if group.longrun or group.interval or group.engine != "auto":
            continue
        swept = group.lumped.quotient if group.lumped is not None else group.chain
        group.engine = selector.resolve(swept, "auto")
    return plan


# ----------------------------------------------------------------------
# lumping glue
# ----------------------------------------------------------------------
def observable_signature(observables: Sequence[np.ndarray]) -> str:
    """A canonical digest of a group's observable vectors.

    Together with the operating chain's fingerprint this keys a lumping
    quotient in the process-wide artifact cache.  The digest is taken over
    the *sorted set* of vector byte strings: the refined partition depends
    only on which distinct observables must stay block-constant, not on how
    many group members observe each or in which order they were submitted —
    so a re-coalesced batch (different client mix, different flush split)
    still hits the cached quotient.
    """
    digest = hashlib.sha256()
    for raw in sorted({np.asarray(vector, dtype=float).tobytes() for vector in observables}):
        digest.update(raw)
        digest.update(b"|")
    return digest.hexdigest()


@dataclass
class QuotientTombstone:
    """Negative cache record: building this quotient failed once already.

    Stored in the artifact cache under the same ``quotient`` key a
    successful build would use, so warm plans recognise the doomed
    refinement and degrade to the full chain silently — no repeated
    refinement attempt, warning or failure count.
    """

    message: str


class QuotientBuildError(CTMCError):
    """A quotient build failed for the first time (fresh tombstone).

    Raised exactly once per (chain, observable signature): subsequent
    cached lookups hit the :class:`QuotientTombstone` and return ``None``
    without raising.
    """


def cached_quotient(
    chain: CTMC,
    observables: Sequence[np.ndarray],
    artifacts: Any | None = None,
    signature: str | None = None,
) -> LumpedChain | None:
    """Build (or fetch) the quotient of ``chain`` seeded with ``observables``.

    With ``artifacts`` given, the quotient is fetched from (or stored into)
    the process-wide cache under ``(chain fingerprint, signature)``; an
    unprofitable quotient is cached as ``None`` so repeat runs skip the
    refinement entirely, and a *crashing* build is cached as a
    :class:`QuotientTombstone` — the first caller sees
    :class:`QuotientBuildError`, warm callers get a silent ``None``.
    """
    if artifacts is None:
        return _build_quotient(chain, observables)
    if signature is None:
        signature = observable_signature(observables)
    fresh_failure = False

    def factory() -> Any:
        nonlocal fresh_failure
        try:
            return _build_quotient(chain, observables)
        except Exception as error:
            fresh_failure = True
            return QuotientTombstone(f"{type(error).__name__}: {error}")

    cached = artifacts.quotient(chain, signature, factory)
    if isinstance(cached, QuotientTombstone):
        if fresh_failure:
            raise QuotientBuildError(cached.message)
        return None
    return cached


def _lump_group(group: ExecutionGroup, artifacts: Any | None = None) -> LumpedChain | None:
    """Build the quotient of a group's operating chain, if worthwhile.

    The initial partition is seeded with one state-class per distinct value
    of every observable vector of the group (target indicators and reward
    vectors; long-run groups additionally seed their safe-set indicators,
    which regular reachability groups bake into the absorbing transform
    instead), so the refined partition keeps all of them block-constant.
    Initial distributions need no seeding: ordinary lumpability holds for
    arbitrary initial distributions, which simply project blockwise.

    Interval-until groups quotient the *target-absorbed* transform of their
    base chain — the chain the backward value sweep walks — seeded with the
    target indicator; the executor lifts the per-block values back to full
    states before the forward phase (and builds the forward-phase quotient
    itself, since its seeds only exist after the backward sweep ran).
    """
    if group.interval:
        first = group.members[0]
        absorbing = first.target_mask | ~(first.safe_mask | first.target_mask)
        if artifacts is not None:
            transformed = artifacts.transformed_chain(group.chain, absorbing)
        else:
            transformed = group.chain.make_absorbing(absorbing)
        return cached_quotient(
            transformed, [first.target_mask.astype(float)], artifacts
        )
    observables: list[np.ndarray] = []
    for member in group.members:
        if member.kind is MeasureKind.TRANSIENT:
            return None  # full distributions live on the original states
        if member.target_mask is not None:
            observables.append(member.target_mask.astype(float))
        if group.longrun and member.safe_mask is not None:
            # For long-run reachability the chain is *not* pre-absorbed, so
            # the safe set must stay block-constant for prob0/prob1 and the
            # restricted system to commute with the quotient.
            observables.append(member.safe_mask.astype(float))
        if member.rewards is not None:
            observables.append(member.rewards)

    return cached_quotient(group.chain, observables, artifacts)


def _build_quotient(chain: CTMC, observables: Sequence[np.ndarray]) -> LumpedChain | None:
    """Refine and build the quotient of ``chain`` seeded with ``observables``."""
    labels: dict[str, np.ndarray] = {}
    for observable_index, vector in enumerate(observables):
        _, classes = np.unique(vector, return_inverse=True)
        for class_index in range(int(classes.max()) + 1):
            labels[f"obs{observable_index}c{class_index}"] = classes == class_index

    bare = CTMC(
        chain.rate_matrix,
        chain.initial_distribution,
        labels=labels,
    )
    partition = np.asarray(lumping_partition(bare), dtype=int)
    num_blocks = int(partition.max()) + 1 if partition.size else 0
    if num_blocks >= bare.num_states:
        return None  # nothing collapsed; the quotient would only add overhead

    quotient, _ = lump_ctmc(bare, partition.tolist(), respect_initial=False)
    num_states = bare.num_states
    representatives = np.full(num_blocks, -1, dtype=int)
    seen_first = np.unique(partition, return_index=True)
    representatives[seen_first[0]] = seen_first[1]
    aggregation = sparse.csr_matrix(
        (np.ones(num_states), (partition, np.arange(num_states))),
        shape=(num_blocks, num_states),
    )
    return LumpedChain(
        quotient=quotient,
        partition=partition,
        representatives=representatives,
        aggregation=aggregation,
    )
