"""The asyncio scenario service: queued submissions, coalesced sweeps.

:class:`ScenarioService` is the multi-client front end over the batched
analysis machinery.  Many concurrent clients ``await service.submit(...)``
(or :meth:`~ScenarioService.submit_scenario` with a registry name); a
single dispatcher task flushes what is pending through one
:func:`repro.analysis.build_plan` / execution-unit pass.  By default it
works as a *group commit*: a free dispatcher flushes whatever is pending at
once, and whatever arrives while a flush runs forms the next flush, so
only work, never a timer, sits on a request's path.  A positive
*coalescing window* instead keeps collecting for that long after the
first pending submission, cut short when the *size cap* is reached.  In
either mode one flush plans:

* requests from different clients that agree on (chain, rate, grid,
  epsilon) merge into one group and therefore one uniformization sweep, so
  ``N`` clients asking for the same curve family at once cost no more
  sweeps than one batched session;
* independent execution units (regular groups, bundled interval
  signatures) run concurrently on a worker thread pool;
* every submission owns a future that is resolved with exactly its own
  :class:`~repro.analysis.MeasureResult` slice — a poisoned request fails
  its *own* future (at validation or execution time) without wedging the
  dispatcher or the rest of its batch;
* expensive intermediates (absorbing transforms, lumping quotients,
  uniformized operators, Fox–Glynn tables, factorizations) persist across
  flushes in the service's :class:`repro.service.ArtifactCache` — a private
  one unless the caller hands one over — so a repeat portfolio sweep
  recomputes none of them.

A quick example — three clients sharing one service::

    async def client(service, disaster):
        request = survivability_request(space, disaster, 1, times)
        result = await service.submit(request)
        return result.squeezed

    async with ScenarioService(lump=True) as service:
        curves = await asyncio.gather(
            *(client(service, d) for d in disasters)
        )
        print(service.stats.summary())
"""

from __future__ import annotations

import asyncio
import time
import warnings
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, ClassVar

from repro.analysis import (
    MeasureRequest,
    MeasureResult,
    SessionStats,
    build_plan,
    execution_units,
    normalise_request,
)
from repro.ctmc.artifacts import ArtifactCache, CacheStats
from repro.ctmc.engines import default_worker_count
from repro.ctmc.linsolve import LinearSolveStats
from repro.ctmc.uniformization import DEFAULT_EPSILON, UniformizationStats
from repro.service.registry import (
    ScenarioExpansion,
    ScenarioRegistry,
    ScenarioSpec,
    paper_registry,
)
from repro.stats import GAUGE, LatencyHistogram, Record, gauge, render_metrics

#: Default coalescing window in seconds.  Zero is group commit: a free
#: dispatcher flushes on arrival, and submissions landing during a flush
#: form the next one.  A positive window makes every request wait it out,
#: whether or not another submission comes.
DEFAULT_COALESCE_WINDOW = 0.0

#: Default size cap: a flush is triggered early once this many requests are
#: pending, bounding both latency and batch memory.
DEFAULT_MAX_BATCH = 256


class ServiceClosed(RuntimeError):
    """Raised by futures of submissions that a closing service abandoned."""


class QueueFull(RuntimeError):
    """Raised by ``submit()`` when the bounded pending queue is at capacity.

    Backpressure is synchronous and cheap: the rejected submission never
    enters the queue, so it cannot poison other callers or occupy a slot a
    retry could use.  Clients are expected to back off and resubmit (the
    HTTP front end maps this to ``503``).
    """


class ScenarioTimeout(TimeoutError):
    """Raised by ``submit()`` when a per-request deadline expires.

    The deadline cancels only the submitting caller's future: the shared
    flush keeps running for its other members, and a result arriving after
    the deadline is discarded instead of resolving a stale future.
    """


@dataclass
class ServiceStats(Record):
    """Counters describing what the service did across its lifetime.

    ``session`` aggregates the usual planner/executor work counters
    (requests, groups, sweeps, matvecs, lumping compression, linear-solver
    factorizations) over every flush; the service-level counters describe
    the queueing layer above, and ``flush_latency`` histograms the
    wall-clock duration of each flush (validation + planning + execution).
    ``/metrics`` renders all of it under ``repro_service_``: the session's
    counters as if they were the service's own, the histogram as
    ``repro_service_flush_latency_seconds``.
    """

    label: ClassVar[str] = "service"
    derived: ClassVar[dict[str, str]] = {"coalesced_per_flush": GAUGE}

    submissions: int = 0
    completed: int = 0
    failed: int = 0
    rejected: int = 0
    timeouts: int = 0
    flushes: int = 0
    largest_flush: int = gauge()
    session: SessionStats = field(default_factory=SessionStats)
    flush_latency: LatencyHistogram = field(default_factory=LatencyHistogram)

    @property
    def coalesced_per_flush(self) -> float:
        """Mean number of submissions sharing one plan (1.0 = no coalescing)."""
        return self.session.requests / self.flushes if self.flushes else 0.0


async def await_with_deadline(
    future: asyncio.Future,
    timeout: float | None,
    stats: Any,
    detail: Callable[[], str | None] | None = None,
) -> Any:
    """Await a submission future under a per-request deadline.

    Expiry cancels *this* future only (``asyncio.wait_for`` semantics):
    siblings in the same flush are untouched.  Shared by the in-process
    dispatcher and the sharded front so their timeout semantics (counter,
    exception type, message) cannot drift; ``stats`` only needs a
    ``timeouts`` attribute.  ``detail``, when given, is called at expiry to
    append where the request was stuck (e.g. parked behind a shard restart)
    to the timeout message.
    """
    if timeout is None:
        return await future
    try:
        return await asyncio.wait_for(future, timeout)
    except asyncio.TimeoutError:
        stats.timeouts += 1
        message = f"scenario request did not complete within {timeout}s"
        extra = detail() if detail is not None else None
        if extra:
            message = f"{message} ({extra})"
        raise ScenarioTimeout(message) from None


async def cached_expansion(
    artifacts: ArtifactCache,
    spec: ScenarioSpec,
    points: int | None,
    executor: Executor,
    build: Callable[[ScenarioSpec, int | None], ScenarioExpansion],
) -> ScenarioExpansion:
    """A family's expansion under the ``scenario`` cache kind.

    A hit is served on the event loop; a miss runs ``build`` on
    ``executor`` under the cache's per-key lock, so racing first requests
    of a family build it once.  Shared by both fronts' ``submit_scenario``.
    """
    expansion = artifacts.scenario(spec, points)
    if expansion is None:
        expansion = await asyncio.get_running_loop().run_in_executor(
            executor, artifacts.scenario, spec, points, partial(build, spec, points)
        )
    return expansion


@dataclass
class _Pending:
    """One queued submission: the request plus the caller's future."""

    request: MeasureRequest
    future: asyncio.Future


class ScenarioService:
    """Queued multi-client front end over the batched analysis session.

    Parameters
    ----------
    coalesce_window:
        Seconds the dispatcher keeps collecting submissions after the first
        pending one before flushing.  ``0`` (the default) is group commit:
        a free dispatcher flushes what is pending after one loop tick, and
        what arrives during a flush waits only for that flush to end.
    max_batch:
        Pending-request count that cuts the window short.
    max_pending:
        Bound on the number of queued-but-unflushed submissions; beyond it
        ``submit()`` raises :class:`QueueFull` instead of enqueueing
        (``None`` = unbounded, the default).
    default_timeout:
        Per-request deadline in seconds applied when ``submit()`` is not
        given an explicit one; expiry raises :class:`ScenarioTimeout` and
        cancels only that caller's future (``None`` = no deadline).
    lump:
        Solve every group on its ordinary-lumpability quotient (quotients
        are cached per (chain, observable signature)).
    epsilon:
        Default Poisson-truncation error for requests without one.
    artifacts:
        The :class:`ArtifactCache` every flush plans and executes against;
        without one the service makes a private cache.  Pass a shared one
        to reuse artifacts across services and sessions.
    max_workers:
        Worker threads executing independent groups concurrently; ``None``
        uses :func:`repro.ctmc.engines.default_worker_count`, which bounds
        the pool so dense-BLAS kernels running on the workers cannot
        oversubscribe the machine.
    registry:
        Scenario registry backing :meth:`submit_scenario`; defaults to the
        paper's figure families (:func:`repro.service.paper_registry`).
    """

    def __init__(
        self,
        *,
        coalesce_window: float = DEFAULT_COALESCE_WINDOW,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_pending: int | None = None,
        default_timeout: float | None = None,
        lump: bool = False,
        epsilon: float = DEFAULT_EPSILON,
        artifacts: ArtifactCache | None = None,
        max_workers: int | None = None,
        registry: ScenarioRegistry | None = None,
    ) -> None:
        if coalesce_window < 0:
            raise ValueError("coalesce_window must be non-negative")
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be at least 1 (or None)")
        if default_timeout is not None and default_timeout <= 0:
            raise ValueError("default_timeout must be positive (or None)")
        self.coalesce_window = float(coalesce_window)
        self.max_batch = int(max_batch)
        self.max_pending = None if max_pending is None else int(max_pending)
        self.default_timeout = (
            None if default_timeout is None else float(default_timeout)
        )
        self.lump = lump
        self.default_epsilon = float(epsilon)
        self.artifacts = artifacts if artifacts is not None else ArtifactCache()
        self.registry = registry if registry is not None else paper_registry()
        self.stats = ServiceStats()
        self.max_workers = default_worker_count(max_workers)
        self._pool = ThreadPoolExecutor(
            max_workers=self.max_workers, thread_name_prefix="repro-service"
        )
        self._pending: list[_Pending] = []
        self._arrival: asyncio.Event | None = None
        self._idle: asyncio.Event | None = None  # set while nothing is queued/in flight
        self._dispatcher: asyncio.Task | None = None
        self._flushing = False
        self._closed = False
        self._drain_requested = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def __aenter__(self) -> "ScenarioService":
        self._ensure_running()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    def _ensure_running(self) -> None:
        if self._closed:
            raise ServiceClosed("the scenario service has been closed")
        if self._dispatcher is None or self._dispatcher.done():
            if self._dispatcher is not None and not self._dispatcher.cancelled():
                # A crashed dispatcher must not be respawned silently: the
                # root cause is surfaced (once) before the replacement runs.
                error = self._dispatcher.exception()
                if error is not None:
                    warnings.warn(
                        f"scenario-service dispatcher crashed and is being "
                        f"restarted ({type(error).__name__}: {error})",
                        RuntimeWarning,
                        stacklevel=3,
                    )
            self._arrival = asyncio.Event()
            self._idle = asyncio.Event()
            self._idle.set()
            self._dispatcher = asyncio.get_running_loop().create_task(
                self._dispatch_loop(), name="scenario-service-dispatcher"
            )

    async def close(self, drain: bool = True) -> None:
        """Stop the dispatcher (after flushing pending work, by default).

        Draining cuts the coalescing window short: whatever is pending is
        flushed immediately rather than waiting out ``coalesce_window``.
        """
        if self._closed:
            return
        if drain:
            self._drain_requested = True
            if self._arrival is not None:
                self._arrival.set()  # wake the window wait immediately
            if self._idle is not None and (self._pending or self._flushing):
                await self._idle.wait()
        self._closed = True
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        for pending in self._pending:
            if not pending.future.done():
                pending.future.set_exception(
                    ServiceClosed("service closed before the request was executed")
                )
        self._pending.clear()
        self._pool.shutdown(wait=False)

    def cache_stats(self) -> CacheStats:
        """Snapshot of the artifact cache's per-kind hit/miss counters."""
        return self.artifacts.stats()

    def metrics_records(self) -> list[Record]:
        """The records ``GET /metrics`` renders for this service.

        Service and cache counters, and this process's optimizer counters
        (:func:`repro.optimize.global_optimizer_stats`).
        """
        from repro.optimize.stats import global_optimizer_stats

        return [self.stats, self.cache_stats(), global_optimizer_stats()]

    def metrics_text(self) -> str:
        """The Prometheus text dump of :meth:`metrics_records`."""
        return render_metrics(*self.metrics_records())

    # ------------------------------------------------------------------
    # submission API
    # ------------------------------------------------------------------
    def _enqueue(self, request: MeasureRequest) -> asyncio.Future:
        self._ensure_running()
        if (
            self.max_pending is not None
            and len(self._pending) >= self.max_pending
        ):
            self.stats.rejected += 1
            raise QueueFull(
                f"scenario service has {len(self._pending)} pending submissions "
                f"(max_pending={self.max_pending}); back off and resubmit"
            )
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending.append(_Pending(request=request, future=future))
        self.stats.submissions += 1
        assert self._arrival is not None and self._idle is not None
        self._idle.clear()
        self._arrival.set()
        return future

    async def _await_with_deadline(
        self, future: asyncio.Future, timeout: float | None
    ) -> MeasureResult:
        """Await under the effective deadline; the dispatcher later skips
        futures the expiry cancelled."""
        timeout = self.default_timeout if timeout is None else timeout
        return await await_with_deadline(future, timeout, self.stats)

    async def submit(
        self, request: MeasureRequest, timeout: float | None = None
    ) -> MeasureResult:
        """Queue one request and await its result.

        The call coalesces with every other submission pending in the same
        flush; the returned result is exactly the slice this request would
        have received from a standalone session (values equal to 1e-12).
        With the pending queue at ``max_pending`` the call raises
        :class:`QueueFull` without enqueueing; ``timeout`` (or the service's
        ``default_timeout``) bounds the wait and raises
        :class:`ScenarioTimeout` on expiry, cancelling only this future.
        """
        future = self._enqueue(request)
        return await self._await_with_deadline(future, timeout)

    async def submit_many(
        self, requests: list[MeasureRequest], timeout: float | None = None
    ) -> list[MeasureResult]:
        """Queue several requests at once and await all their results.

        Raises the first failure, but only after every future has settled —
        so sibling failures are all retrieved (no orphaned exceptions) and
        the dispatcher is never left with half-awaited futures.  The
        optional ``timeout`` applies per request, not to the batch total.
        """
        futures: list[asyncio.Future] = []
        try:
            for request in requests:
                futures.append(self._enqueue(request))
        except QueueFull:
            # All-or-nothing: cancelling the partial batch makes the
            # dispatcher drop it before planning, so a rejected caller is
            # never billed for half a family computing in the background.
            for future in futures:
                future.cancel()
            raise
        settled = await asyncio.gather(
            *(self._await_with_deadline(future, timeout) for future in futures),
            return_exceptions=True,
        )
        for outcome in settled:
            if isinstance(outcome, BaseException):
                raise outcome
        return list(settled)

    async def submit_scenario(
        self, name: str, points: int | None = None, timeout: float | None = None
    ) -> list[tuple[MeasureRequest, MeasureResult]]:
        """Expand a registered scenario and await the whole family.

        Returns ``(request, result)`` pairs so callers can use the request
        tags ``(scenario, line, ..., strategy)`` to reassemble curves.
        Each (spec, ``points``) is expanded once: the expansion is kept in
        :attr:`artifacts` under the ``scenario`` kind, and later calls
        share its read-only requests, served on the event loop.  A first
        expansion may build case-study state spaces (seconds of work on a
        cold process), so it runs on the worker pool, keeping the event
        loop — and every other client's submissions — responsive.
        """
        self._ensure_running()
        expansion = await cached_expansion(
            self.artifacts,
            self.registry.get(name),
            points,
            self._pool,
            self.registry.expansion,
        )
        results = await self.submit_many(expansion.requests, timeout=timeout)
        return list(zip(expansion.requests, results))

    # ------------------------------------------------------------------
    # dispatcher
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        assert self._arrival is not None
        loop = asyncio.get_running_loop()
        while True:
            await self._arrival.wait()
            self._arrival.clear()
            if not self._pending:
                continue
            # Coalescing window: keep collecting until it elapses or the
            # size cap is reached.  Submissions landing mid-flush queue up
            # for the next round.
            if self.coalesce_window > 0.0:
                deadline = loop.time() + self.coalesce_window
                while (
                    len(self._pending) < self.max_batch
                    and not self._drain_requested
                ):
                    remaining = deadline - loop.time()
                    if remaining <= 0.0:
                        break
                    try:
                        await asyncio.wait_for(self._arrival.wait(), remaining)
                    except asyncio.TimeoutError:
                        break
                    self._arrival.clear()
            else:
                # Group commit: give the current event-loop tick a chance to
                # finish enqueueing (clients started together still merge),
                # then flush; later arrivals queue for the next flush.
                await asyncio.sleep(0)
                self._arrival.clear()
            # The size cap genuinely bounds the flush: overflow from a
            # burst stays queued and immediately triggers the next round.
            batch = self._pending[: self.max_batch]
            self._pending = self._pending[self.max_batch :]
            if self._pending:
                self._arrival.set()
            # Submissions whose deadline expired while queued are already
            # cancelled; planning them would waste the whole flush's sweep
            # budget on results nobody can receive.
            batch = [pending for pending in batch if not pending.future.done()]
            if not batch:
                if not self._pending:
                    self._idle.set()
                continue
            self._flushing = True
            try:
                await self._flush(batch)
            except BaseException as error:
                # The dispatcher must never strand an in-flight batch: on
                # cancellation (close(drain=False)) or an unexpected escape
                # from _flush, every unresolved future of the batch is
                # failed so awaiting clients wake up.
                abandon = (
                    ServiceClosed("service closed while the request was in flight")
                    if isinstance(error, asyncio.CancelledError)
                    else error
                )
                for pending in batch:
                    self._fail(pending, abandon)
                if isinstance(error, asyncio.CancelledError):
                    raise
                # Otherwise stay alive and keep serving later submissions.
            finally:
                self._flushing = False
                if not self._pending:
                    self._idle.set()

    def _validate_and_plan(
        self, batch: list[_Pending]
    ) -> tuple[list[_Pending], list[tuple[_Pending, BaseException]], Any]:
        """Validate each request and plan the survivors (worker-pool side).

        Runs entirely off the event loop: per-submission validation means a
        poisoned request is rejected here — failing only its own future —
        and never reaches the shared plan.  (The survivors are normalised a
        second time inside ``build_plan``; deriving the masks/vectors is
        trivial next to the sweeps, and keeping the planner self-contained
        is worth the duplication.)
        """
        survivors: list[_Pending] = []
        rejected: list[tuple[_Pending, BaseException]] = []
        for pending in batch:
            try:
                normalise_request(pending.request)
            except Exception as error:
                rejected.append((pending, error))
            else:
                survivors.append(pending)
        plan = None
        if survivors:
            plan = build_plan(
                [pending.request for pending in survivors],
                lump=self.lump,
                default_epsilon=self.default_epsilon,
                artifacts=self.artifacts,
            )
        return survivors, rejected, plan

    async def _flush(self, batch: list[_Pending]) -> None:
        self.stats.flushes += 1
        self.stats.largest_flush = max(self.stats.largest_flush, len(batch))
        started = time.perf_counter()
        try:
            await self._flush_batch(batch)
        finally:
            self.stats.flush_latency.observe(time.perf_counter() - started)

    async def _flush_batch(self, batch: list[_Pending]) -> None:
        loop = asyncio.get_running_loop()
        try:
            survivors, rejected, plan = await loop.run_in_executor(
                self._pool, partial(self._validate_and_plan, batch)
            )
        except Exception as error:
            # Planning over *validated* requests is essentially infallible
            # (lumping failures degrade to unlumped groups inside
            # build_plan); this is a genuine last resort.
            for pending in batch:
                self._fail(pending, error)
            return
        for pending, error in rejected:
            self._fail(pending, error)
        if plan is None:
            return

        results: list[MeasureResult | None] = [None] * plan.num_requests
        errors: dict[int, BaseException] = {}
        engines: list[UniformizationStats] = []
        linears: list[LinearSolveStats] = []

        async def run_unit(unit) -> None:
            # Units write disjoint results slots, so they may run
            # concurrently; a failing unit poisons only its own members.
            engine = UniformizationStats()
            linear = LinearSolveStats()
            try:
                await loop.run_in_executor(
                    self._pool,
                    partial(unit.run, results, self.artifacts, engine, linear),
                )
            except Exception as error:
                for index in unit.request_indices:
                    errors[index] = error
            engines.append(engine)
            linears.append(linear)

        await asyncio.gather(*(run_unit(unit) for unit in execution_units(plan)))

        session = self.stats.session
        session.absorb_plan(plan)
        for engine in engines:
            session.absorb_engine(engine)
        for linear in linears:
            session.absorb_linear(linear)

        for position, pending in enumerate(survivors):
            if position in errors:
                self._fail(pending, errors[position])
            elif results[position] is None:
                self._fail(
                    pending,
                    RuntimeError("request was not resolved by any execution unit"),
                )
            elif not pending.future.done():
                self.stats.completed += 1
                pending.future.set_result(results[position])

    def _fail(self, pending: _Pending, error: BaseException) -> None:
        if not pending.future.done():
            self.stats.failed += 1
            pending.future.set_exception(error)
