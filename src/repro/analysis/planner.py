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

Every plan is built against an :class:`~repro.ctmc.artifacts.ArtifactCache`
(the caller's session or service owns it): absorbing transforms and lumping
quotients are looked up there, so groups of one plan, and plans sharing the
cache, reuse them.

The planner can also run each group on an ordinary-lumpability quotient
(:mod:`repro.ctmc.lumping`, ``lump=True``).  Each distinct chain is
partitioned **once**, seeded with nothing but its own labels and cached
under the ``quotient`` kind, and every group on it reuses that quotient
when the vectors the group observes are block-constant on it (see
:func:`_lump_group`): regular groups absorb their decided blocks on the
quotient (:meth:`LumpedChain.absorbed`), long-run groups solve on it, and
the executor takes both interval-until phases' transforms on it.  Other
groups refine the chain partition further.  ``TRANSIENT`` groups are never
lumped, and a partition that collapses nothing yields no quotient.  A
quotient build that *fails* degrades its groups to their full chains, with
one warning and one counted failure per build: the failure is recorded as a
:class:`QuotientTombstone` under the same key, so later groups and plans
skip the doomed refinement silently instead of re-failing (and re-warning,
and re-counting).
"""

from __future__ import annotations

import dataclasses
import hashlib
import warnings
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np
from scipy import sparse

from repro.ctmc.ctmc import CTMC, CTMCError
from repro.ctmc.lumping import (
    block_indicator,
    first_seen_ids,
    lump_ctmc,
    lumping_partition,
)
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
    _absorbed: dict[bytes, "LumpedChain"] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def num_blocks(self) -> int:
        return self.quotient.num_states

    def project_distributions(self, block: np.ndarray) -> np.ndarray:
        """Sum each distribution's mass per quotient block: ``(B, n) -> (B, n')``."""
        return np.ascontiguousarray((self.aggregation @ block.T).T)

    def project_statewise(self, vector: np.ndarray) -> np.ndarray:
        """Restrict a block-constant state vector to one value per block."""
        return vector[self.representatives]

    def is_block_constant(self, vector: np.ndarray) -> bool:
        """Whether ``vector`` takes exactly one value on every block."""
        return np.array_equal(vector, vector[self.representatives][self.partition])

    def absorbed(
        self, mask: np.ndarray, observables: Sequence[np.ndarray], artifacts: Any
    ) -> "LumpedChain":
        """The quotient of the chain with the states of ``mask`` made absorbing.

        ``mask`` and ``observables`` must be block-constant.  The transform
        is taken on the quotient: absorbing a union of blocks zeroes whole
        blocks' rows, so the partition stays lumpable.  Absorbed blocks then
        have no transitions, so those that also agree on every observable
        are bisimilar and merge into one block — no refinement needed.  The
        result is memoised per (mask, set of observables); a racing
        duplicate build is harmless.
        """
        blocks = self.project_statewise(mask)
        observed = [self.project_statewise(np.asarray(v, dtype=float)) for v in observables]
        key = blocks.tobytes() + b"".join(sorted({vector.tobytes() for vector in observed}))
        cached = self._absorbed.get(key)
        if cached is not None:
            return cached
        merge = first_seen_ids(
            np.column_stack(
                [np.where(blocks, -1, np.arange(blocks.shape[0]))]
                + [np.where(blocks, vector, 0.0) for vector in observed]
            )
        )
        num_merged = int(merge.max()) + 1
        if num_merged == self.num_blocks:
            result = dataclasses.replace(
                self, quotient=artifacts.transformed_chain(self.quotient, blocks)
            )
        else:
            # Merge, then absorb: the row lump_ctmc reads for a merged
            # absorbed block is cleared by the transform.
            merged, _ = lump_ctmc(self.quotient, merge.tolist(), respect_initial=False)
            _, first_blocks = np.unique(merge, return_index=True)
            result = LumpedChain(
                quotient=artifacts.transformed_chain(merged, blocks[first_blocks]),
                partition=merge[self.partition],
                representatives=self.representatives[first_blocks],
                aggregation=(block_indicator(merge, num_merged).T @ self.aggregation).tocsr(),
            )
        return self._absorbed.setdefault(key, result)


@dataclass
class ExecutionGroup:
    """Requests that will share one uniformization sweep.

    ``lumped`` is the quotient of ``chain`` the group runs on, if any.  For
    interval-until groups it is the quotient of the untransformed base
    chain; the executor absorbs on it once per phase.
    """

    chain: CTMC  # the operating chain (after the absorbing transform)
    rate: float
    times: np.ndarray
    epsilon: float
    members: list[PlannedRequest] = field(default_factory=list)
    interval: bool = False
    longrun: bool = False
    lumped: LumpedChain | None = None


@dataclass
class ExecutionPlan:
    """The grouping the session will execute.

    ``lump_failures`` counts quotient builds that crashed, degrading their
    groups to the full chain (see :func:`build_plan`).
    """

    groups: list[ExecutionGroup]
    num_requests: int
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
    default_epsilon: float = DEFAULT_EPSILON,
    artifacts: Any,
) -> ExecutionPlan:
    """Group ``requests`` into execution groups (see module docstring).

    ``artifacts`` is the :class:`~repro.ctmc.artifacts.ArtifactCache` (any
    object with its ``transformed_chain``/``quotient`` methods works) that
    serves absorbing transforms and lumping quotients by chain fingerprint.
    """
    groups: dict[tuple, ExecutionGroup] = {}
    # Per group (in creation order): the base chain and the absorbing mask
    # that turned it into the group's operating chain, if any.
    origins: list[tuple[CTMC, np.ndarray | None]] = []

    for index, request in enumerate(requests):
        planned = normalise_request(request, index)
        epsilon = request.epsilon if request.epsilon is not None else default_epsilon
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
            key = (base.fingerprint, longrun_token, planned.kind.value)
            group = groups.get(key)
            if group is None:
                group = ExecutionGroup(
                    chain=base,
                    rate=0.0,
                    times=planned.times,
                    epsilon=float(epsilon),
                    longrun=True,
                )
                groups[key] = group
                origins.append((base, None))
            group.members.append(planned)
            continue

        interval = planned.kind is MeasureKind.INTERVAL_REACHABILITY
        absorbing = None
        if planned.kind is MeasureKind.REACHABILITY:
            absorbing = planned.target_mask | ~(planned.safe_mask | planned.target_mask)
            transform_token = absorbing.tobytes()
            operating = artifacts.transformed_chain(base, absorbing)
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
        )

        group = groups.get(key)
        if group is None:
            group = ExecutionGroup(
                chain=operating,
                rate=float(operating.max_exit_rate),
                times=planned.times,
                epsilon=float(epsilon),
                interval=interval,
            )
            groups[key] = group
            origins.append((base, absorbing))
        group.members.append(planned)

    plan = ExecutionPlan(groups=list(groups.values()), num_requests=len(requests))
    if lump:
        # Lumping is an optimisation: a failing refinement/quotient build
        # must never poison the plan (the scenario service coalesces many
        # clients into one), so its groups degrade to their full chains and
        # the sweeps stay exact — but visibly: the failure is warned about
        # and counted into the session stats once.  It leaves a tombstone in
        # the artifact cache, so later groups and plans degrade *silently*
        # (no re-refinement, no repeat warning, no repeat count).
        for group, (base, absorbing) in zip(plan.groups, origins):
            try:
                group.lumped = _lump_group(group, base, absorbing, artifacts)
            except Exception as error:
                group.lumped = None
                plan.lump_failures += 1
                warnings.warn(
                    f"lumping failed for a {group.chain.num_states}-state group "
                    f"({type(error).__name__}: {error}); sweeping the full chain",
                    RuntimeWarning,
                    stacklevel=2,
                )
    return plan


# ----------------------------------------------------------------------
# lumping glue
# ----------------------------------------------------------------------
def observable_signature(observables: Sequence[np.ndarray]) -> str:
    """A canonical digest of a group's observable vectors.

    Together with the chain's fingerprint this keys a lumping quotient in
    the artifact cache.  The digest is taken over
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
    successful build would use, so later lookups recognise the doomed
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
    observables: Iterable[np.ndarray],
    artifacts: Any,
    signature: str | None = None,
) -> LumpedChain | None:
    """Fetch (or build) the quotient of ``chain`` seeded with ``observables``.

    The quotient is fetched from (or stored into) ``artifacts`` under
    ``(chain fingerprint, signature)``, where ``signature`` defaults to
    :func:`observable_signature` of ``observables`` (a sequence then);
    given a ``signature``, only a build reads ``observables``, once.  An
    unprofitable quotient is cached as ``None`` so repeat runs skip the
    refinement entirely, and a *crashing* build is cached as a
    :class:`QuotientTombstone` — the first caller sees
    :class:`QuotientBuildError`, later callers get a silent ``None``.
    """
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


def _chain_quotient(chain: CTMC, artifacts: Any) -> LumpedChain | None:
    """The quotient of ``chain`` seeded with its own labels, built once.

    Cached under the ``quotient`` kind, keyed by the chain's content key
    (which covers its labels and is computed once per chain object).  The
    label vectors are a generator that only a build reads, so a warm plan
    neither builds nor hashes them.  A build that raises leaves a
    tombstone, so the chain's other groups degrade to the full chain
    without failing (and warning) again.
    """
    labels = (chain.label_mask(name).astype(float) for name in chain.label_names)
    return cached_quotient(chain, labels, artifacts, signature="labels|" + chain.content_key)


def _lump_group(
    group: ExecutionGroup,
    base: CTMC,
    absorbing: np.ndarray | None,
    artifacts: Any,
) -> LumpedChain | None:
    """The quotient ``group`` runs on, or ``None`` for its full chain.

    ``base`` is the group's chain before its absorbing transform
    ``absorbing`` (``None`` when it has none).  The group reuses the chain
    quotient of ``base`` when every vector it observes is block-constant on
    it: target masks, reward vectors, the absorbing mask and — where the
    chain is not pre-absorbed, i.e. for long-run and interval-until groups
    — the safe masks, which prob0/prob1, the restricted systems and the
    interval transforms need to commute with the quotient.  Otherwise the
    chain partition is refined further, seeded with those observables; the
    result equals a from-scratch refinement seeded with the chain's labels
    plus the observables.  The absorbing transform is then taken on the
    quotient (:meth:`LumpedChain.absorbed`).  Initial distributions need no
    seeding: ordinary lumpability holds for arbitrary initial distributions,
    which simply project blockwise.
    """
    observables = [] if absorbing is None else [absorbing]
    for member in group.members:
        if member.kind is MeasureKind.TRANSIENT:
            return None  # full distributions live on the original states
        if member.target_mask is not None:
            observables.append(member.target_mask)
        if (group.longrun or group.interval) and member.safe_mask is not None:
            observables.append(member.safe_mask)
        if member.rewards is not None:
            observables.append(member.rewards)

    lumped = _chain_quotient(base, artifacts)
    if lumped is None:
        return None  # nothing collapsed (or the build failed)
    if not all(lumped.is_block_constant(vector) for vector in observables):
        seeds = [lumped.partition.astype(float)]
        seeds.extend(np.asarray(vector, dtype=float) for vector in observables)
        lumped = cached_quotient(base, seeds, artifacts)
        if lumped is None:
            return None
    if absorbing is None:
        return lumped
    return lumped.absorbed(absorbing, observables, artifacts)


def _build_quotient(chain: CTMC, observables: Iterable[np.ndarray]) -> LumpedChain | None:
    """Refine and build the quotient of ``chain`` seeded with ``observables``.

    The refinement starts from the joint value classes of the observables:
    two states share an initial block exactly when every observable agrees
    on them.  The class ids are handed to the refinement as one label per
    bit, which keeps the seeding linear in the number of states.
    """
    num_states = chain.num_states
    classes = np.zeros(num_states, dtype=np.int64)
    for vector in observables:
        _, values = np.unique(vector, return_inverse=True)
        _, classes = np.unique(
            classes * (int(values.max(initial=0)) + 1) + values, return_inverse=True
        )
    labels = {
        f"class-bit{bit}": (classes >> bit) & 1 == 1
        for bit in range(int(classes.max(initial=0)).bit_length())
    }
    bare = CTMC(chain.rate_matrix, chain.initial_distribution, labels=labels)
    assignment = lumping_partition(bare)
    partition = np.asarray(assignment, dtype=np.int64)
    num_blocks = int(partition.max()) + 1 if partition.size else 0
    if num_blocks >= num_states:
        return None  # nothing collapsed; the quotient would only add overhead

    quotient, _ = lump_ctmc(bare, assignment, respect_initial=False)
    _, representatives = np.unique(partition, return_index=True)
    return LumpedChain(
        quotient=quotient,
        partition=partition,
        representatives=representatives,
        aggregation=block_indicator(partition, num_blocks).T.tocsr(),
    )
