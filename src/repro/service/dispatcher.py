"""The in-process scenario service: queued submissions, coalesced sweeps.

:class:`ScenarioService` is the multi-client front end over the batched
analysis machinery.  Many concurrent clients ``await service.submit(...)``
(or :meth:`~ScenarioService.submit_scenario` with a registry name); each
call puts its requests on the service's queue as one message, and one flush
thread runs the loop a shard worker's main thread runs: it drains the queue
(:func:`drain`) and answers what it took with one
:meth:`~repro.analysis.AnalysisSession.run` call (:func:`run_flush`).  By
default the drain is a *group commit*: a flush takes whatever is queued
when it starts, and whatever arrives while it runs forms the next one, so
only work, never a timer, sits on a request's path.  A positive
*coalescing window* instead keeps collecting for that long after the first
message, cut short by the *size cap*.  In either mode one flush plans:

* requests from different clients that agree on (chain, rate, grid,
  epsilon) merge into one group and therefore one uniformization sweep, so
  ``N`` clients asking for the same curve family at once cost no more
  sweeps than one batched session;
* every submission owns a future that is settled with exactly its own
  :class:`~repro.analysis.MeasureResult` slice, one
  ``call_soon_threadsafe`` per flush — a poisoned request fails its *own*
  future (at validation or execution time) without wedging the flush
  thread or the rest of its batch;
* expensive intermediates (absorbing transforms, lumping quotients,
  uniformized operators, Fox–Glynn tables, factorizations) persist across
  flushes in the service's :class:`repro.service.ArtifactCache` — a private
  one unless the caller hands one over — so a repeat portfolio sweep
  recomputes none of them.

What a client touches (admission under ``max_pending``, deadlines,
``submit_scenario``, the lifecycle, ``metrics_text``) is written once, in
:class:`_ScenarioFront`; this service and
:class:`repro.service.ShardedScenarioService` differ only in how they
queue a batch, expand a family and start and stop.

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
import queue
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Any, ClassVar, Sequence

from repro.analysis import AnalysisSession, MeasureRequest, MeasureResult, SessionStats
from repro.ctmc.artifacts import ArtifactCache, CacheStats
from repro.ctmc.uniformization import DEFAULT_EPSILON
from repro.service.registry import (
    ScenarioExpansion,
    ScenarioRegistry,
    ScenarioSpec,
    paper_registry,
)
from repro.stats import GAUGE, LatencyHistogram, Record, gauge, render_metrics

#: Default coalescing window in seconds.  Zero is group commit: a flush
#: takes what is queued when it starts, and submissions landing during a
#: flush form the next one.  A positive window makes every request wait it
#: out, whether or not another submission comes.
DEFAULT_COALESCE_WINDOW = 0.0

#: Default size cap: a drain stops early once it holds this many requests,
#: bounding both latency and batch memory.
DEFAULT_MAX_BATCH = 256


class ServiceClosed(RuntimeError):
    """Raised by futures of submissions that a closing service abandoned."""


class QueueFull(RuntimeError):
    """Raised by ``submit()`` when a call would pass the ``max_pending`` bound.

    Backpressure is synchronous and cheap: a rejected call enqueues none of
    its requests, so it cannot poison other callers or occupy a slot a
    retry could use.  A front with nothing unsettled admits any call, so
    the rejection always means "back off and resubmit" (the HTTP front end
    maps it to ``503``).
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


def drain(inbox: Any, window: float, max_batch: int) -> list[tuple]:
    """The messages of one flush, taken from ``inbox``.

    Blocks for one message, then takes whatever else is queued; with a
    positive ``window`` it also takes whatever arrives within that many
    seconds of the first.  It stops once the ``requests`` messages taken
    hold ``max_batch`` requests, or after a ``shutdown`` message, which is
    then the last one returned.  A shard worker's main thread and the
    in-process service's flush thread both collect this way.
    """
    messages = [inbox.get()]
    deadline = time.monotonic() + window
    taken = 0
    while messages[-1][0] != "shutdown":
        if messages[-1][0] == "requests":
            taken += len(messages[-1][1])
            if taken >= max_batch:
                break
        try:
            messages.append(inbox.get(timeout=max(0.0, deadline - time.monotonic())))
        except queue.Empty:
            break
    return messages


def run_flush(
    session: AnalysisSession, stats: ServiceStats, requests: Sequence[MeasureRequest]
) -> list[MeasureResult | Exception]:
    """One flush: ``session.run(requests)``, accounted in ``stats``.

    Both fronts flush through this call, the in-process service on its
    flush thread and a shard worker on its main thread, with a session
    whose :attr:`~repro.analysis.AnalysisSession.stats` is
    ``stats.session``.
    """
    stats.flushes += 1
    stats.largest_flush = max(stats.largest_flush, len(requests))
    started = time.perf_counter()
    try:
        return session.run(requests)
    finally:
        stats.flush_latency.observe(time.perf_counter() - started)


@dataclass
class _Pending:
    """One queued submission: the request plus the caller's future."""

    request: MeasureRequest
    future: asyncio.Future


class _ScenarioFront:
    """What a client touches, once for both scenario services.

    The settings shared by every front, the lifecycle, admission under
    ``max_pending``, per-request deadlines, settling a batch, ``submit``,
    ``submit_many``, ``submit_scenario`` and :meth:`metrics_text` live here.
    A front supplies the rest: :meth:`start`, :meth:`close`,
    :meth:`metrics_records`, the payloads it sends for requests
    (:meth:`_payloads`), a family's expansion (:meth:`_expand`) and how a
    batch is queued (:meth:`_enqueue`), whose entries carry a ``future``.
    """

    def __init__(
        self,
        *,
        coalesce_window: float,
        max_batch: int,
        max_pending: int | None,
        default_timeout: float | None,
        registry: ScenarioRegistry | None,
        artifacts: ArtifactCache,
        stats: Record,
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
        self.registry = registry if registry is not None else paper_registry()
        #: Holds each scenario family's expansion (the ``scenario`` kind).
        self.artifacts = artifacts
        self.stats = stats
        self._expander = ThreadPoolExecutor(1, thread_name_prefix="repro-expand")
        # Futures submitted and not yet settled: the backpressure count.
        self._unsettled: set[asyncio.Future] = set()
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def __aenter__(self):
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceClosed("the scenario service has been closed")

    def metrics_text(self) -> str:
        """The Prometheus text dump of :meth:`metrics_records`."""
        return render_metrics(*self.metrics_records())

    # ------------------------------------------------------------------
    # submission API
    # ------------------------------------------------------------------
    async def submit(
        self, request: MeasureRequest, timeout: float | None = None
    ) -> MeasureResult:
        """Queue one request and await its result.

        The call coalesces with every other submission queued for the same
        flush; the returned result is exactly the slice this request would
        have received from a standalone session (values equal to 1e-12).
        ``timeout`` (or the service's ``default_timeout``) bounds the wait
        and raises :class:`ScenarioTimeout` on expiry, cancelling only this
        future.  The one-request case of :meth:`submit_many`.
        """
        (result,) = await self.submit_many([request], timeout=timeout)
        return result

    async def submit_many(
        self, requests: Sequence[MeasureRequest], timeout: float | None = None
    ) -> list[MeasureResult]:
        """Queue several requests as one message and await all their results.

        The requests reach a flush together, so a family is never split
        across flushes (beyond ``max_batch``).  While requests are
        unsettled, a call that would take their count past ``max_pending``
        raises :class:`QueueFull`, enqueues nothing and counts each of its
        requests in ``stats.rejected``; a front with nothing unsettled
        admits any call.  Raises the first failure, but only after every
        future has settled, so sibling failures are all retrieved (no
        orphaned exceptions).  The optional ``timeout`` applies per
        request, not to the batch total.
        """
        self._check_open()
        requests = list(requests)
        return await self._submit(requests, await self._payloads(requests), timeout)

    async def submit_scenario(
        self, name: str, points: int | None = None, timeout: float | None = None
    ) -> list[tuple[MeasureRequest, MeasureResult]]:
        """Expand a registered scenario and await the whole family.

        Returns ``(request, result)`` pairs so callers can use the request
        tags ``(scenario, line, ..., strategy)`` to reassemble curves.
        Each (spec, ``points``) is expanded once: the expansion is kept in
        :attr:`artifacts` under the ``scenario`` kind, and later calls
        share its read-only requests (and payloads), served from the event
        loop with no executor hop.  A first expansion may build case-study
        state spaces (seconds of work on a cold process), so it runs on one
        expander thread under the cache's per-key lock, keeping the event
        loop responsive and building racing first requests once.
        """
        self._check_open()
        spec = self.registry.get(name)
        expansion = self.artifacts.scenario(spec, points)
        if expansion is None:
            expansion = await asyncio.get_running_loop().run_in_executor(
                self._expander,
                self.artifacts.scenario,
                spec,
                points,
                partial(self._expand, spec, points),
            )
        results = await self._submit(expansion.requests, expansion.payloads, timeout)
        return list(zip(expansion.requests, results))

    async def _submit(
        self,
        requests: Sequence[MeasureRequest],
        payloads: Sequence[Any],
        timeout: float | None,
    ) -> list[MeasureResult]:
        """Admit a call, enqueue it and settle it (see :meth:`submit_many`)."""
        unsettled = len(self._unsettled)
        if (
            self.max_pending is not None
            and unsettled
            and unsettled + len(requests) > self.max_pending
        ):
            self.stats.rejected += len(requests)
            raise QueueFull(
                f"scenario service has {unsettled} unsettled requests and "
                f"{len(requests)} more would pass max_pending={self.max_pending}; "
                "back off and resubmit"
            )
        entries = self._enqueue(requests, payloads)
        self._unsettled.update(entry.future for entry in entries)
        timeout = self.default_timeout if timeout is None else timeout
        settled = await asyncio.gather(
            *(self._settle(entry, timeout) for entry in entries),
            return_exceptions=True,
        )
        for outcome in settled:
            if isinstance(outcome, BaseException):
                raise outcome
        return settled

    async def _settle(self, entry: Any, timeout: float | None) -> MeasureResult:
        """Await one entry's future under its deadline; it counts against
        ``max_pending`` until then.

        Expiry cancels this future only (``asyncio.wait_for``): its flush
        keeps running for the others and drops a late result.
        """
        try:
            if timeout is None:
                return await entry.future
            try:
                return await asyncio.wait_for(entry.future, timeout)
            except asyncio.TimeoutError:
                self.stats.timeouts += 1
                message = f"scenario request did not complete within {timeout}s"
                where = self._where(entry)
                raise ScenarioTimeout(
                    f"{message} ({where})" if where else message
                ) from None
        finally:
            self._unsettled.discard(entry.future)

    def _where(self, entry: Any) -> str | None:
        """Where an expired entry was stuck, for its timeout message."""
        return None


class ScenarioService(_ScenarioFront):
    """Queued multi-client front end over the batched analysis session.

    Parameters
    ----------
    coalesce_window:
        Seconds the flush thread keeps collecting after the first queued
        message before flushing.  ``0`` (the default) is group commit: a
        flush takes what is queued when it starts, and what arrives during
        a flush waits only for that flush to end.
    max_batch:
        Request count that cuts the window short; a flush plans at most
        this many requests.
    max_pending:
        Bound on the requests submitted but not yet settled; while any are
        unsettled, a call that would pass it raises :class:`QueueFull` and
        enqueues none of its requests (``None`` = unbounded, the default).
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
    registry:
        Scenario registry backing :meth:`submit_scenario`; defaults to the
        paper's figure families (:func:`repro.service.paper_registry`).

    The flush thread starts on the first submission; a family's first
    expansion runs on one expander thread.
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
        registry: ScenarioRegistry | None = None,
    ) -> None:
        super().__init__(
            coalesce_window=coalesce_window,
            max_batch=max_batch,
            max_pending=max_pending,
            default_timeout=default_timeout,
            registry=registry,
            artifacts=artifacts if artifacts is not None else ArtifactCache(),
            stats=ServiceStats(),
        )
        self._session = AnalysisSession(
            lump=lump,
            epsilon=epsilon,
            stats=self.stats.session,
            artifacts=self.artifacts,
        )
        self._inbox: queue.SimpleQueue = queue.SimpleQueue()
        self._flusher: threading.Thread | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Check the service is open; the flush thread starts on the first
        submission."""
        self._check_open()

    async def close(self, drain: bool = True) -> None:
        """Stop the flush thread, after flushing what is queued by default.

        Draining sends ``shutdown``, which cuts an open coalescing window
        short, and waits for the thread to flush and settle everything
        queued before it.  ``drain=False`` fails every unsettled submission
        with :class:`ServiceClosed` at once; the thread skips them.
        """
        if self._closed:
            return
        self._closed = True
        if self._flusher is not None:
            self._inbox.put(("shutdown",))
            if drain:
                # The thread schedules its last settlements before it exits,
                # so they run on this loop before the join is reported.
                await asyncio.get_running_loop().run_in_executor(
                    self._expander, self._flusher.join
                )
        for future in self._unsettled:
            if not future.done():
                self.stats.failed += 1
                future.set_exception(
                    ServiceClosed("service closed before the request was executed")
                )
        self._expander.shutdown(wait=False)

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

    # ------------------------------------------------------------------
    # what the front supplies
    # ------------------------------------------------------------------
    async def _payloads(self, requests: list[MeasureRequest]) -> tuple:
        """Nothing to prepare: the flush thread takes the requests themselves."""
        return ()

    def _expand(self, spec: ScenarioSpec, points: int | None) -> ScenarioExpansion:
        return self.registry.expansion(spec, points)

    def _enqueue(self, requests: Sequence[MeasureRequest], payloads: Any) -> list[_Pending]:
        """Queue the call as one inbox message; start the flush thread."""
        loop = asyncio.get_running_loop()
        batch = [_Pending(request, loop.create_future()) for request in requests]
        self.stats.submissions += len(batch)
        if self._flusher is None:
            self._flusher = threading.Thread(
                target=self._serve, daemon=True, name="repro-service-flush"
            )
            self._flusher.start()
        self._inbox.put(("requests", batch))
        return batch

    # ------------------------------------------------------------------
    # the flush thread
    # ------------------------------------------------------------------
    def _serve(self) -> None:
        """Drain, flush at most ``max_batch`` requests at a time, settle
        each flush in one loop callback; ``shutdown`` ends it after the
        flushes of what came before."""
        while True:
            messages = drain(self._inbox, self.coalesce_window, self.max_batch)
            queued = [
                pending
                for message in messages
                if message[0] == "requests"
                for pending in message[1]
            ]
            for start in range(0, len(queued), self.max_batch):
                # A future whose deadline expired is already done: planning
                # it would spend the flush on a result nobody can receive.
                batch = [
                    pending
                    for pending in queued[start : start + self.max_batch]
                    if not pending.future.done()
                ]
                if not batch:
                    continue
                requests = [pending.request for pending in batch]
                try:
                    outcomes = run_flush(self._session, self.stats, requests)
                except Exception as error:  # fails this flush, not the thread
                    outcomes = [error] * len(batch)
                loop = batch[0].future.get_loop()
                if not loop.is_closed():  # else nobody awaits these futures
                    loop.call_soon_threadsafe(self._settle_flush, batch, outcomes)
            if messages[-1][0] == "shutdown":
                return

    def _settle_flush(self, batch: list[_Pending], outcomes: list[Any]) -> None:
        """Resolve one flush's futures (on their event loop)."""
        for pending, outcome in zip(batch, outcomes):
            if pending.future.done():
                continue
            if isinstance(outcome, Exception):
                self.stats.failed += 1
                pending.future.set_exception(outcome)
            else:
                self.stats.completed += 1
                pending.future.set_result(outcome)
