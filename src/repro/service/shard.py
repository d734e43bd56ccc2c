"""Sharded multi-process scenario execution with self-healing supervision.

One :class:`repro.service.ScenarioService` coalesces heavy measure traffic
inside a single process; :class:`ShardedScenarioService` scales that out
across N *worker processes* (``multiprocessing`` spawn), each running its
own service instance, on one pool thread, with its own
:class:`repro.service.ArtifactCache`.  The design is shared-nothing:

* **Fingerprint routing / chain ownership** — every submission is routed by
  the content fingerprint of its chain (:func:`shard_for_fingerprint`), so
  one shard *owns* each chain: its LU factorizations, BSCC decompositions,
  lumping quotients and uniformized operators stay warm in that shard's
  cache and are never duplicated across workers.  A ``submit_many`` call
  (a scenario family) reaches each shard it touches as one ``requests``
  message, which the worker enqueues in one loop tick, so the family plans
  there as one flush; requests that arrive while a flush runs, from any
  client, plan together in the next one, by chain fingerprint.  So
  cross-client sweep sharing keeps working under shard-out:
  ``benchmarks/bench_perf_sharded_service.py`` gates that duplicated
  clients on a 1-shard front cost exactly the single-process sweep count.
* **Content-addressed chain transport** — each chain crosses the wire to a
  worker once per worker incarnation, keyed by
  :attr:`~repro.ctmc.ctmc.CTMC.content_key` (fingerprint + initial
  distribution + labels); a request then carries only that key plus its
  own masks and vectors, and the worker swaps its stored chain back in.
  A worker keeps every chain routed to it for its lifetime (the front holds
  the same chains anyway).  The front tracks which keys each incarnation
  holds and forgets them on respawn, so a retried or failed-over request
  sends its chain again first.
* **Expand and pickle once** — the front keeps each scenario family's
  expansion per (spec, ``points``) in its own
  :class:`~repro.service.ArtifactCache` (the ``scenario`` kind, bounded by
  ``max_entries``): the read-only requests and every request's wire
  payload.  A warm ``submit_scenario`` routes those payloads straight from
  the event loop; only a family's first request expands and pickles.
* **Shared-nothing artifact-summary protocol** — workers never share cache
  memory; instead each answers a ``stats`` message with a picklable
  snapshot of its :class:`~repro.service.ServiceStats`,
  :class:`~repro.service.CacheStats` and owned chain fingerprints (which
  the benchmarks gate on).  :meth:`ShardedScenarioService.metrics_records`
  absorbs the snapshots into one record of each kind and adds the front's
  own records; :func:`repro.stats.render_metrics` writes ``/metrics`` from
  them.  The front banks the last snapshot of every dead incarnation, so a
  restart never takes a counter backwards.
* **Backpressure and deadlines** — ``submit()`` raises
  :class:`~repro.service.QueueFull` once ``max_pending`` requests are in
  flight (``submit_many`` rejects each of its requests then), and a
  per-request ``timeout`` abandons only that caller's future (the shard
  keeps computing; a late response is discarded).

The front is *supervised*, not merely fail-fast — the failure model the
paper applies to the water-treatment plant (components fail, repair units
restore them, service degrades instead of collapsing) applied to the
serving layer itself:

* **Crash supervision** — a worker that exits is respawned with
  exponential backoff (``backoff_base * 2**k``, capped at ``backoff_cap``).
  After ``restart_limit`` restarts inside a ``restart_window`` sliding
  window the shard is *circuit-broken*: permanently down until the service
  is rebuilt, so a worker crashing in a tight loop cannot consume the
  front forever.
* **Wedge detection** — the front pings every worker each
  ``heartbeat_interval`` seconds over the wire protocol; a worker whose
  last ``pong`` is older than ``heartbeat_timeout`` is considered
  wedged-but-alive (``process.join()`` would never fire), terminated, and
  handed to the same restart path.
* **Transparent retry** — measure requests are pure, idempotent
  computations on immutable chains, so requests in flight on a dead worker
  are *resubmitted* (up to ``retry_limit`` attempts per request, counted in
  ``stats.retries``) instead of failing the caller.
  :class:`ShardCrashed` surfaces only once the retry budget is exhausted
  or no shard can serve the chain.
* **Degraded-mode failover** — while a shard is restarting or broken, the
  chains it owns route to the next alive shard in deterministic fallback
  order (owner ``+1, +2, ...`` modulo N).  Availability holds at the cost
  of cold caches; ``stats.failovers`` counts the diverted dispatches per
  owning shard.  Requests with nowhere to go *park* while a restart is
  pending and are re-dispatched the moment a worker comes back up.

Fault hypotheses are checked, not assumed: a seeded
:class:`repro.service.chaos.ChaosPolicy` (see :mod:`repro.service.chaos`)
injects kills, wedges, corrupt/delayed/dropped responses into the worker
side of the wire protocol, and ``benchmarks/bench_resilience.py`` gates a
full-portfolio run under a kill-each-shard-once schedule.

The wire protocol is deliberately tiny (tuples over two ``multiprocessing``
queues per shard, variable parts pre-pickled so serialization errors fail
the offending request instead of wedging a queue feeder thread):

=================================================  ================================
parent → worker                                    worker → parent
=================================================  ================================
``("chain", key, chain_bytes)``                    ``("result", id, payload_bytes)``
``("requests", [(id, request_bytes), ...])``       ``("error", id, exc_bytes, text)``
``("stats", id)``                                  ``("stats", id, snapshot_bytes)``
``("ping", id)``                                   ``("pong", id)``
``("shutdown",)``
=================================================  ================================

``request_bytes`` is the pickled request with its ``chain`` field replaced
by the chain's content key; a mostly-zero initial distribution travels as
its non-zero entries.  A scenario family's payloads are pickled once and
resent as the same bytes.  One ``requests`` message carries every request of
one ``submit_many`` call (or one retry or re-dispatch round) routed to that
shard; ``submit`` sends a one-element list.  Everything else stays per
request: each entry has its own id, result or error message, deadline,
retry budget and failover route, and counts once in a chaos schedule.
Ordering rule: the front puts ``("chain", ...)`` on a worker's queue ahead
of the first ``requests`` message on that chain, the queue is FIFO, and
the worker installs a chain before it reads its next message, so a
request never arrives ahead of its chain.  Results travel as plain arrays
(times, values, group index, lump size) and are re-attached to the caller's
original request object, so the parent never unpickles a chain.
"""

from __future__ import annotations

import asyncio
import itertools
import pickle
import threading
import time
import queue as queue_module
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, ClassVar

import multiprocessing

import os

import numpy as np

from repro.analysis import MeasureRequest, MeasureResult
from repro.ctmc.artifacts import DEFAULT_MAX_ENTRIES, ArtifactCache, CacheStats
from repro.ctmc.engines import (
    BLAS_ENV_VARS,
    blas_thread_budget,
    pin_blas_threads,
    restore_blas_threads,
)
from repro.ctmc.uniformization import DEFAULT_EPSILON
from repro.service.chaos import DEFAULT_WEDGE_HOLD, ChaosPolicy
from repro.service.dispatcher import (
    DEFAULT_COALESCE_WINDOW,
    DEFAULT_MAX_BATCH,
    QueueFull,
    ScenarioService,
    ServiceClosed,
    ServiceStats,
    await_with_deadline,
    cached_expansion,
)
from repro.service.registry import (
    ScenarioExpansion,
    ScenarioRegistry,
    ScenarioSpec,
    paper_registry,
)
from repro.stats import GAUGE, Record, keyed, render_metrics

#: Default number of worker processes.
DEFAULT_NUM_SHARDS = 2

#: Default seconds a closing front waits for a worker to drain before
#: terminating it (constructor knob ``shutdown_grace``).
DEFAULT_SHUTDOWN_GRACE = 10.0

#: Default deadline for one shard's ``stats`` snapshot reply (constructor
#: knob ``snapshot_timeout``).
DEFAULT_SNAPSHOT_TIMEOUT = 30.0

#: Default seconds between heartbeat pings (``None``/``0`` disables).
DEFAULT_HEARTBEAT_INTERVAL = 1.0

#: Default wedge deadline when ``heartbeat_timeout`` is not given.
#: Deliberately generous: a *healthy* worker's event loop can be starved
#: for seconds at a stretch while its pool threads hold the GIL through
#: heavy sparse kernels, and a tight default would kill healthy workers
#: under exactly the loads that matter.  Tune it down (with the interval)
#: when fast wedge detection is worth the false-positive risk.
DEFAULT_HEARTBEAT_TIMEOUT = 30.0

#: Default restarts allowed inside ``restart_window`` before a shard is
#: circuit-broken.
DEFAULT_RESTART_LIMIT = 3

#: Default sliding-window width (seconds) for the restart budget.
DEFAULT_RESTART_WINDOW = 60.0

#: Default resubmissions of one in-flight request across worker deaths.
DEFAULT_RETRY_LIMIT = 2

#: Default restart backoff: first respawn after ``backoff_base`` seconds,
#: doubling per death in the window, capped at ``backoff_cap``.
DEFAULT_BACKOFF_BASE = 0.25
DEFAULT_BACKOFF_CAP = 5.0

#: A freshly spawned worker imports numpy/scipy before it can answer its
#: first ping; heartbeat timeouts below this floor only apply once the
#: worker has ponged at least once.
BOOT_GRACE = 30.0

#: Shard lifecycle states (exposed via :class:`ShardSnapshot` / metrics).
STATE_UP = "up"
STATE_RESTARTING = "restarting"
STATE_BROKEN = "broken"


class ShardCrashed(RuntimeError):
    """Raised for requests the supervision layer could not recover.

    Surfaces only after the self-healing machinery is exhausted: the
    request's retry budget ran out across worker deaths, or no shard (owner
    or failover candidate) is up or restarting.  The condition is
    transient from the caller's point of view — the HTTP front maps it to
    ``503`` with ``Retry-After``.
    """


def shard_for_fingerprint(fingerprint: str, num_shards: int) -> int:
    """The shard owning a chain, from the chain's content fingerprint.

    Stable across processes and runs (the fingerprint is a hex SHA-256 of
    the rate matrix), so a portfolio always partitions the same way and a
    warm shard keeps its chains over service restarts.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be at least 1")
    return int(fingerprint[:16], 16) % num_shards


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def _pickle_error(error: BaseException) -> bytes | None:
    """Best-effort pickle of an exception (None when it cannot travel)."""
    try:
        payload = pickle.dumps(error)
        pickle.loads(payload)  # some exceptions pickle but fail to rebuild
        return payload
    except Exception:
        return None


async def _shard_worker(
    shard_index: int,
    requests: Any,
    responses: Any,
    config: dict,
) -> None:
    """The asyncio body of one worker: an in-process service fed by a queue.

    The service runs on one pool thread: the worker process is already the
    unit of parallelism, and more threads in it only contend for its GIL.
    """
    service = ScenarioService(
        coalesce_window=config["coalesce_window"],
        max_batch=config["max_batch"],
        lump=config["lump"],
        epsilon=config["epsilon"],
        artifacts=ArtifactCache(config["max_entries"]),
        max_workers=1,
    )
    loop = asyncio.get_running_loop()
    tasks: set[asyncio.Task] = set()
    chaos: ChaosPolicy | None = config.get("chaos")
    generation = config.get("generation", 0)
    script = (
        chaos.script_for(shard_index, generation) if chaos is not None else {}
    )
    request_count = 0
    # Chains this incarnation holds, by content key; a chain that failed to
    # unpickle is stored as its exception, so each request on it fails alone.
    chains: dict[str, Any] = {}

    async def run_request(request_id: int, payload: bytes, event=None) -> None:
        try:
            request = pickle.loads(payload)
            if isinstance(request.initial_distributions, _SparseVectors):
                request.initial_distributions = request.initial_distributions.dense()
            chain = chains[request.chain]
            if isinstance(chain, Exception):
                raise chain
            request.chain = chain
            result = await service.submit(request)
            body = pickle.dumps(
                {
                    "times": result.times,
                    "values": result.values,
                    "group_index": result.group_index,
                    "lumped_states": result.lumped_states,
                    "squeeze": result._squeeze,
                }
            )
        except Exception as error:
            responses.put(
                (
                    "error",
                    request_id,
                    _pickle_error(error),
                    f"{type(error).__name__}: {error}",
                )
            )
        else:
            if event is not None:
                if event.action == "drop":
                    return  # the response vanishes; only a deadline recovers
                if event.action == "delay":
                    await asyncio.sleep(event.delay)
                elif event.action == "corrupt":
                    body = b"\xff\xfe chaos: corrupted response payload"
            responses.put(("result", request_id, body))

    async with service:
        # Unsolicited readiness pong: the parent's heartbeat monitor knows
        # boot is over the moment the service is constructed.
        responses.put(("pong", -1))
        while True:
            message = await loop.run_in_executor(None, requests.get)
            kind = message[0]
            if kind == "shutdown":
                break
            if kind == "ping":
                responses.put(("pong", message[1]))
                continue
            if kind == "stats":
                # Thread accounting rides along so the front (and the
                # oversubscription regression test) can verify a dense run
                # stays within budget: worker-pool bound, live thread count
                # and the BLAS pin this process inherited at spawn.
                threads = {
                    "pool_max_workers": service.max_workers,
                    "active_threads": threading.active_count(),
                    "blas_env": {
                        variable: os.environ.get(variable)
                        for variable in BLAS_ENV_VARS
                    },
                }
                snapshot = pickle.dumps(
                    (
                        service.stats,
                        service.cache_stats(),
                        service.artifacts.chain_fingerprints(),
                        threads,
                    )
                )
                responses.put(("stats", message[1], snapshot))
                continue
            if kind == "chain":
                # Installed before the next message is read: the front
                # queues a chain ahead of the first request on it.
                try:
                    chains[message[1]] = await loop.run_in_executor(
                        None, pickle.loads, message[2]
                    )
                except Exception as error:
                    chains[message[1]] = error
                continue
            # kind == "requests".  Its entries are what chaos schedules count,
            # one each, so heartbeats and stats probes never shift a
            # schedule.  Every entry's task is created in this loop tick, so
            # all of them enqueue before the dispatcher runs again and the
            # batch plans as one flush.
            for request_id, payload in message[1]:
                request_count += 1
                event = script.get(request_count)
                if event is not None:
                    if event.action == "kill":
                        os._exit(event.exit_code)
                    if event.action == "wedge":
                        # Block the message loop synchronously: the process
                        # stays alive but stops answering pings — only the
                        # heartbeat timeout can catch this.  If the
                        # supervisor never kills us (heartbeats disabled),
                        # serve the request normally after the hold.
                        time.sleep(event.delay or DEFAULT_WEDGE_HOLD)
                        event = None
                    elif event.action not in ("corrupt", "delay", "drop"):
                        event = None  # pragma: no cover - future-proofing
                task = loop.create_task(run_request(request_id, payload, event))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)


def _shard_worker_main(
    shard_index: int, requests: Any, responses: Any, config: dict
) -> None:
    """Spawn entry point of one shard worker process."""
    try:
        asyncio.run(_shard_worker(shard_index, requests, responses, config))
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _SparseVectors:
    """Initial distributions on the wire: their shape and non-zero entries.

    The registry's disaster requests start from point masses; sent dense,
    a Line 1 point mass is 266 KB of zeros.
    """

    shape: tuple[int, ...]
    indices: np.ndarray
    values: np.ndarray

    def dense(self) -> np.ndarray:
        array = np.zeros(self.shape)
        array.flat[self.indices] = self.values
        return array


def _request_payload(request: MeasureRequest) -> bytes:
    """A request's wire form: a copy whose chain is the chain's content key.

    Float initial distributions that are mostly zeros travel as
    :class:`_SparseVectors`.  A ``-0.0`` counts as an entry, so the worker's
    dense copy is bit-identical to the caller's array.
    """
    initial = request.initial_distributions
    if isinstance(initial, np.ndarray) and initial.dtype == np.float64:
        entries = np.flatnonzero((initial != 0.0) | np.signbit(initial))
        if 2 * entries.size < initial.size:
            initial = _SparseVectors(initial.shape, entries, initial.flat[entries])
    return pickle.dumps(
        replace(
            request,
            chain=request.chain.content_key,
            initial_distributions=initial,
        )
    )


def _request_payloads(requests: list[MeasureRequest]) -> list[bytes | Exception]:
    """Each request's wire form, or the error that stopped it (one per request)."""
    payloads: list[bytes | Exception] = []
    for request in requests:
        try:
            payloads.append(_request_payload(request))
        except Exception as error:
            payloads.append(error)
    return payloads


def _wire_expansion(
    registry: ScenarioRegistry, spec: ScenarioSpec, points: int | None
) -> ScenarioExpansion:
    """A family's expansion with every request's wire payload."""
    expansion = registry.expansion(spec, points)
    return replace(expansion, payloads=tuple(_request_payloads(expansion.requests)))


@dataclass
class ShardSnapshot:
    """One shard's shared-nothing stats summary (the ``stats`` reply)."""

    index: int
    alive: bool
    service: ServiceStats | None = None
    cache: CacheStats | None = None
    fingerprints: frozenset[str] = frozenset()
    #: Worker thread accounting: pool bound, live thread count and the BLAS
    #: environment pin the process inherited (oversubscription guard).
    threads: dict | None = None
    #: Supervision state: ``up``, ``restarting`` or ``broken``.
    state: str = STATE_UP
    #: Worker incarnation (0 = initial spawn; +1 per supervisor restart).
    generation: int = 0
    #: Restarts the supervisor performed for this shard so far.
    restarts: int = 0


@dataclass
class ShardedServiceStats(Record):
    """Front-end counters of the sharded service (routing layer only).

    Per-shard execution counters live in the workers and are fetched on
    demand through :meth:`ShardedScenarioService.shard_snapshots`.
    ``/metrics`` renders the scalar counters as ``repro_front_*_total`` and
    the per-shard dicts as ``repro_shard_*_total{shard="i"}``.
    """

    label: ClassVar[str] = "front"

    submissions: int = 0
    completed: int = 0
    failed: int = 0
    rejected: int = 0
    timeouts: int = 0
    #: In-flight requests transparently resubmitted after a worker death.
    retries: int = 0
    #: Submissions rejected because no shard (owner or failover) could
    #: serve them — the dead-shard fast-fail path.
    routed_dead: int = 0
    routed: dict[int, int] = keyed("shard", family="repro_shard_routed")
    #: Supervisor restarts per shard index.
    restarts: dict[int, int] = keyed("shard", family="repro_shard_restarts")
    #: Dispatches diverted away from an owning shard, per owner index.
    failovers: dict[int, int] = keyed("shard", family="repro_shard_failovers")
    #: Wedge detections (heartbeat timeouts that led to a kill), per shard.
    heartbeat_misses: dict[int, int] = keyed(
        "shard", family="repro_shard_heartbeat_misses"
    )
    #: Chains sent to a worker incarnation that did not hold them yet.
    chain_uploads: int = 0
    #: Pickled size of those chain uploads.
    chain_bytes: int = 0
    #: Pickled size of every request payload sent (retries included).
    request_bytes: int = 0


@dataclass
class ShardGauges(Record):
    """Per-shard state of one snapshot round, as ``repro_shard_*`` gauges."""

    label: ClassVar[str] = "shard"

    #: 1 while the shard's worker is alive.
    alive: dict[int, int] = keyed("shard", kind=GAUGE)
    #: 1 under the shard's supervision state (``up``, ``restarting`` or
    #: ``broken``).
    state: dict[tuple[int, str], int] = keyed(("shard", "state"), kind=GAUGE)
    #: Chain fingerprints the shard's cache holds.
    owned_chains: dict[int, int] = keyed("shard", kind=GAUGE)


@dataclass
class _Inflight:
    """One tracked submission: the caller's future plus retry bookkeeping.

    ``request is None`` marks control-plane probes (stats snapshots): they
    are never retried or failed over, only failed when their shard dies.
    """

    future: asyncio.Future
    request: MeasureRequest | None
    payload: bytes | None = None
    #: Resubmissions consumed so far (0 = first dispatch).
    attempts: int = 0
    #: Shard currently executing the request (None while parked).
    shard_index: int | None = None
    request_id: int | None = None
    #: Waiting for a shard restart to be dispatchable again.
    parked: bool = False


@dataclass
class _Shard:
    """Parent-side handle of one worker process (and its incarnations)."""

    index: int
    process: Any
    requests: Any
    responses: Any
    inflight: dict[int, _Inflight] = field(default_factory=dict)
    alive: bool = True
    closing: bool = False
    #: Supervision state: ``up``, ``restarting`` or ``broken``.
    state: str = STATE_UP
    #: Worker incarnation; stale reader/watcher threads compare against it.
    generation: int = 0
    #: Whether the current incarnation has answered at least one ping
    #: (boot grace gates the wedge timeout until then).
    ready: bool = False
    #: ``time.monotonic()`` of the last pong (initialised to spawn time).
    last_pong: float = 0.0
    #: Set by the heartbeat monitor just before it kills a wedged worker,
    #: so the exit handler can attribute the death correctly.
    wedged: bool = False
    #: Monotonic death times inside the current restart window.
    death_times: list[float] = field(default_factory=list)
    restart_handle: Any = None
    restart_task: Any = None
    #: Content keys of the chains the current incarnation holds.
    chain_keys: set[str] = field(default_factory=set)
    #: The last snapshots of the dead incarnations, summed, and the last
    #: snapshot of the latest one (see :meth:`lifetime_snapshots`).
    banked: ShardSnapshot | None = None
    last_seen: ShardSnapshot | None = None

    def lifetime_snapshots(self, snapshot: ShardSnapshot) -> list[ShardSnapshot]:
        """The snapshots whose counters sum to this shard's lifetime totals.

        A respawned worker counts from zero, so a snapshot of a newer
        incarnation first banks the last snapshot of the one before.  A
        down shard, or a reply older than the last one seen, contributes
        the last-known snapshot instead, so no total goes backwards across
        a restart.  Work a dead incarnation did after its last snapshot is
        not counted.
        """
        last = self.last_seen
        if snapshot.service is not None and (
            last is None or snapshot.generation >= last.generation
        ):
            if last is not None and snapshot.generation > last.generation:
                if self.banked is None:
                    self.banked = ShardSnapshot(
                        self.index, alive=False, service=ServiceStats(), cache=CacheStats()
                    )
                self.banked.service.absorb(last.service)
                self.banked.cache.absorb(last.cache)
            self.last_seen = last = snapshot
        return [part for part in (self.banked, last) if part is not None]


class ShardedScenarioService:
    """Scenario portfolios partitioned across N supervised worker processes.

    Parameters
    ----------
    num_shards:
        Worker-process count; each runs one :class:`ScenarioService` with a
        private :class:`ArtifactCache`.
    coalesce_window, max_batch, lump, epsilon:
        Forwarded to every worker's in-process service, which runs on one
        pool thread.
    max_pending:
        Bound on in-flight submissions across the whole front; beyond it
        ``submit()`` raises :class:`~repro.service.QueueFull`.
    default_timeout:
        Per-request deadline applied when ``submit()`` gets none.
    max_entries:
        Per-shard artifact-cache bound, and the bound of the front's own
        cache (:attr:`artifacts`), which holds scenario expansions.
    registry:
        Scenario registry backing :meth:`submit_scenario` (expanded in the
        parent, then routed per request); defaults to the paper's families.
    start_method:
        ``multiprocessing`` start method; ``spawn`` (the default) keeps
        workers free of inherited interpreter state.  Workers may take the
        dense-BLAS path, so the front pins the BLAS thread count to
        :func:`repro.ctmc.engines.blas_thread_budget` around the spawns and
        N shards never oversubscribe the machine N-fold.
    heartbeat_interval, heartbeat_timeout:
        Liveness probing: a ping every ``heartbeat_interval`` seconds; a
        worker silent for ``heartbeat_timeout`` (default
        ``max(5 * heartbeat_interval, 30s)`` — generous on purpose, see
        :data:`DEFAULT_HEARTBEAT_TIMEOUT`) is deemed wedged, killed and
        restarted.  ``heartbeat_interval=None`` (or 0) disables wedge
        detection.
    restart_limit, restart_window:
        Crash supervision budget: up to ``restart_limit`` respawns inside a
        ``restart_window``-second sliding window, then the shard is
        circuit-broken.  ``restart_limit=0`` restores fail-fast behaviour
        (a dead shard stays dead).
    retry_limit:
        Transparent-retry budget per request across worker deaths
        (``0`` fails in-flight requests immediately, PR-5 style).
    backoff_base, backoff_cap:
        Exponential respawn backoff (``base * 2**k`` seconds, capped).
    failover:
        Route a down shard's chains to the next alive shard (deterministic
        owner ``+1, +2, ...`` order) instead of parking/failing them.
    shutdown_grace:
        Seconds :meth:`close` waits per worker before terminating it.
    snapshot_timeout:
        Default deadline for one shard's ``stats`` reply in
        :meth:`shard_snapshots` / :meth:`metrics_text`.
    chaos:
        Optional :class:`~repro.service.chaos.ChaosPolicy` injected into
        every worker (tests, benchmarks and drills only).

    Use as an async context manager::

        async with ShardedScenarioService(num_shards=2, lump=True) as service:
            pairs = await service.submit_scenario("fig4_5")
    """

    def __init__(
        self,
        num_shards: int = DEFAULT_NUM_SHARDS,
        *,
        coalesce_window: float = DEFAULT_COALESCE_WINDOW,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_pending: int | None = None,
        default_timeout: float | None = None,
        lump: bool = False,
        epsilon: float = DEFAULT_EPSILON,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        registry: ScenarioRegistry | None = None,
        start_method: str = "spawn",
        heartbeat_interval: float | None = DEFAULT_HEARTBEAT_INTERVAL,
        heartbeat_timeout: float | None = None,
        restart_limit: int = DEFAULT_RESTART_LIMIT,
        restart_window: float = DEFAULT_RESTART_WINDOW,
        retry_limit: int = DEFAULT_RETRY_LIMIT,
        backoff_base: float = DEFAULT_BACKOFF_BASE,
        backoff_cap: float = DEFAULT_BACKOFF_CAP,
        failover: bool = True,
        shutdown_grace: float = DEFAULT_SHUTDOWN_GRACE,
        snapshot_timeout: float = DEFAULT_SNAPSHOT_TIMEOUT,
        chaos: ChaosPolicy | None = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be at least 1 (or None)")
        if default_timeout is not None and default_timeout <= 0:
            raise ValueError("default_timeout must be positive (or None)")
        if heartbeat_interval is not None and heartbeat_interval < 0:
            raise ValueError("heartbeat_interval must be >= 0 (0/None disables)")
        if heartbeat_timeout is not None and heartbeat_timeout <= 0:
            raise ValueError("heartbeat_timeout must be positive (or None)")
        if restart_limit < 0:
            raise ValueError("restart_limit must be >= 0")
        if restart_window <= 0:
            raise ValueError("restart_window must be positive")
        if retry_limit < 0:
            raise ValueError("retry_limit must be >= 0")
        if backoff_base <= 0 or backoff_cap <= 0:
            raise ValueError("backoff_base and backoff_cap must be positive")
        if shutdown_grace <= 0:
            raise ValueError("shutdown_grace must be positive")
        if snapshot_timeout <= 0:
            raise ValueError("snapshot_timeout must be positive")
        if chaos is not None and not isinstance(chaos, ChaosPolicy):
            raise TypeError("chaos must be a ChaosPolicy (or None)")
        self.num_shards = int(num_shards)
        self.max_pending = None if max_pending is None else int(max_pending)
        self.default_timeout = (
            None if default_timeout is None else float(default_timeout)
        )
        self.heartbeat_interval = (
            None
            if heartbeat_interval is None or heartbeat_interval == 0
            else float(heartbeat_interval)
        )
        self.heartbeat_timeout = (
            float(heartbeat_timeout)
            if heartbeat_timeout is not None
            else (
                None
                if self.heartbeat_interval is None
                else max(5.0 * self.heartbeat_interval, DEFAULT_HEARTBEAT_TIMEOUT)
            )
        )
        self.restart_limit = int(restart_limit)
        self.restart_window = float(restart_window)
        self.retry_limit = int(retry_limit)
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self.failover = bool(failover)
        self.shutdown_grace = float(shutdown_grace)
        self.snapshot_timeout = float(snapshot_timeout)
        self.registry = registry if registry is not None else paper_registry()
        #: The front's cache: each scenario family's requests and payloads.
        self.artifacts = ArtifactCache(max_entries)
        self.stats = ShardedServiceStats(
            routed={index: 0 for index in range(self.num_shards)}
        )
        self._worker_config = {
            "coalesce_window": float(coalesce_window),
            "max_batch": int(max_batch),
            "lump": bool(lump),
            "epsilon": float(epsilon),
            "max_entries": int(max_entries),
            "chaos": chaos,
        }
        self._start_method = start_method
        self._shards: list[_Shard] = []
        self._parked: list[_Inflight] = []
        self._ids = itertools.count()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._heartbeat_task: asyncio.Task | None = None
        self._expander = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-shard-expand"
        )
        self._started = False
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def __aenter__(self) -> "ShardedScenarioService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def start(self) -> None:
        """Spawn the worker processes and their reader/watcher threads."""
        if self._closed:
            raise ServiceClosed("the sharded scenario service has been closed")
        if self._started:
            return
        self._started = True
        self._loop = asyncio.get_running_loop()
        context = multiprocessing.get_context(self._start_method)
        # BLAS pools size themselves from the environment once, at library
        # load; pinning around the spawns means each of the N workers gets
        # 1/N of the cores instead of N full-sized pools (oversubscription
        # guard for the dense engine).  The parent's own environment is
        # restored afterwards.
        previous_blas = pin_blas_threads(blas_thread_budget(self.num_shards))
        try:
            spawned = []
            for index in range(self.num_shards):
                requests = context.Queue()
                responses = context.Queue()
                process = context.Process(
                    target=_shard_worker_main,
                    args=(
                        index,
                        requests,
                        responses,
                        {**self._worker_config, "generation": 0},
                    ),
                    daemon=True,
                    name=f"repro-shard-{index}",
                )
                process.start()
                spawned.append((index, process, requests, responses))
        finally:
            restore_blas_threads(previous_blas)
        for index, process, requests, responses in spawned:
            shard = _Shard(
                index=index,
                process=process,
                requests=requests,
                responses=responses,
                last_pong=time.monotonic(),
            )
            self._shards.append(shard)
            self._start_shard_threads(shard)
        if self.heartbeat_interval is not None:
            self._heartbeat_task = self._loop.create_task(self._heartbeat_loop())

    def _start_shard_threads(self, shard: _Shard) -> None:
        """Reader/watcher threads for the shard's *current* incarnation.

        Both threads bind the process/queue objects and the generation at
        start, so threads of a replaced incarnation go stale harmlessly
        instead of draining the successor's queues.
        """
        suffix = f"-g{shard.generation}" if shard.generation else ""
        threading.Thread(
            target=self._read_responses,
            args=(shard, shard.process, shard.responses, shard.generation),
            daemon=True,
            name=f"repro-shard-{shard.index}{suffix}-reader",
        ).start()
        threading.Thread(
            target=self._watch_process,
            args=(shard, shard.process, shard.generation),
            daemon=True,
            name=f"repro-shard-{shard.index}{suffix}-watcher",
        ).start()

    async def close(self) -> None:
        """Shut every worker down (draining in-flight work, with a grace cap)."""
        if self._closed or not self._started:
            self._closed = True
            return
        self._closed = True
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            try:
                await self._heartbeat_task
            except asyncio.CancelledError:
                pass
            self._heartbeat_task = None
        for shard in self._shards:
            shard.closing = True
            if shard.restart_handle is not None:
                shard.restart_handle.cancel()
                shard.restart_handle = None
            if shard.alive:
                try:
                    shard.requests.put(("shutdown",))
                except Exception:  # pragma: no cover - queue already broken
                    pass
        assert self._loop is not None
        await self._loop.run_in_executor(None, self._join_workers)
        closed_error = ServiceClosed(
            "service closed while the request was in flight"
        )
        for shard in self._shards:
            shard.alive = False
            self._fail_inflight(shard, closed_error)
        for entry in self._parked:
            if not entry.future.done():
                self.stats.failed += 1
                entry.future.set_exception(closed_error)
        self._parked.clear()
        self._expander.shutdown(wait=False)

    def _join_workers(self) -> None:
        deadline = self.shutdown_grace
        for shard in self._shards:
            shard.process.join(timeout=deadline)
            if shard.process.is_alive():
                shard.process.terminate()
                shard.process.join(timeout=1.0)
            # Unblock the queue feeder threads so interpreter exit is clean.
            for channel in (shard.requests, shard.responses):
                try:
                    channel.close()
                    channel.cancel_join_thread()
                except Exception:  # pragma: no cover
                    pass

    # ------------------------------------------------------------------
    # background threads
    # ------------------------------------------------------------------
    def _read_responses(
        self, shard: _Shard, process: Any, responses: Any, generation: int
    ) -> None:
        """Drain one incarnation's response queue onto the event loop.

        Payloads are unpickled *here*, on the reader thread, so large value
        arrays and stats snapshots never serialize on the event loop (which
        also serves HTTP traffic).  Pongs short-circuit entirely on this
        thread: liveness bookkeeping must not queue behind loop callbacks.
        """
        while True:
            try:
                message = responses.get(timeout=0.25)
            except queue_module.Empty:
                if (
                    shard.closing
                    or shard.generation != generation
                    or not process.is_alive()
                ):
                    return
                continue
            except (EOFError, OSError):  # queue torn down (close or respawn)
                return
            if message[0] == "pong":
                if shard.generation == generation:
                    shard.last_pong = time.monotonic()
                    shard.ready = True
                continue
            message = self._decode_response(shard, message)
            self._call_on_loop(partial(self._handle_response, shard, message))

    @staticmethod
    def _decode_response(shard: _Shard, message: tuple) -> tuple:
        """Unpickle a response's variable part (reader-thread side).

        A payload that cannot be unpickled — a chaos-corrupted response,
        a truncated queue write — must fail exactly its own request: the
        decode error is folded into an ``error`` message for that request
        id, and the reader thread carries on with the next response.
        """
        kind, request_id = message[0], message[1]
        try:
            if kind in ("result", "stats"):
                return (kind, request_id, pickle.loads(message[2]))
            # kind == "error": the exception itself may be unpicklable.
            error_bytes, text = message[2], message[3]
            error = pickle.loads(error_bytes) if error_bytes is not None else None
            return (kind, request_id, error, text)
        except Exception as decode_error:
            return (
                "error",
                request_id,
                None,
                f"undecodable shard {shard.index} response: {decode_error}",
            )

    def _watch_process(self, shard: _Shard, process: Any, generation: int) -> None:
        """Hand a dead incarnation to the supervisor the moment it exits."""
        process.join()
        self._call_on_loop(partial(self._on_shard_exit, shard, generation))

    def _call_on_loop(self, callback) -> None:
        loop = self._loop
        if loop is None:
            return
        try:
            loop.call_soon_threadsafe(callback)
        except RuntimeError:  # pragma: no cover - loop already closed
            pass

    # ------------------------------------------------------------------
    # supervision: restart, retry, failover
    # ------------------------------------------------------------------
    def _on_shard_exit(self, shard: _Shard, generation: int) -> None:
        """Supervise one worker death: budget the restart, recover in-flight.

        Runs on the event loop.  The dead incarnation's in-flight requests
        are resubmitted through :meth:`_route` (failover or park) while
        their retry budget lasts; control-plane probes and exhausted
        requests fail with :class:`ShardCrashed`.
        """
        if shard.generation != generation:
            return  # stale watcher of a replaced incarnation
        shard.alive = False
        if shard.closing or self._closed:
            return
        was_wedged, shard.wedged = shard.wedged, False
        cause = (
            "stopped answering heartbeats and was terminated"
            if was_wedged
            else f"exited with code {shard.process.exitcode}"
        )
        entries = list(shard.inflight.values())
        shard.inflight.clear()
        now = time.monotonic()
        deaths = [
            stamp
            for stamp in shard.death_times
            if stamp > now - self.restart_window
        ]
        if len(deaths) >= self.restart_limit:
            shard.state = STATE_BROKEN
        else:
            deaths.append(now)
            shard.state = STATE_RESTARTING
            delay = min(
                self.backoff_cap, self.backoff_base * 2.0 ** (len(deaths) - 1)
            )
            assert self._loop is not None
            shard.restart_handle = self._loop.call_later(
                delay, self._begin_respawn, shard, shard.generation
            )
        shard.death_times = deaths
        retried = [
            entry for entry in entries if self._retry_budgeted(entry, shard, cause)
        ]
        self._route(retried)
        if shard.state == STATE_BROKEN:
            # Chains parked for this shard may have lost their last route.
            self._drain_parked()

    def _retry_budgeted(self, entry: _Inflight, shard: _Shard, cause: str) -> bool:
        """Charge one retry to a dead incarnation's entry, or fail it."""
        if entry.future.done():
            return False
        if entry.request is None:  # control-plane probe: never retried
            entry.future.set_exception(
                ShardCrashed(f"shard {shard.index} worker {cause}")
            )
            return False
        if entry.attempts >= self.retry_limit:
            self.stats.failed += 1
            entry.future.set_exception(
                ShardCrashed(
                    f"shard {shard.index} worker {cause}; retry budget "
                    f"({self.retry_limit}) exhausted"
                )
            )
            return False
        # Measure requests are pure and idempotent: resubmitting one to a
        # restarted or failover worker recomputes the same values.
        entry.attempts += 1
        self.stats.retries += 1
        return True

    def _begin_respawn(self, shard: _Shard, generation: int) -> None:
        shard.restart_handle = None
        if (
            self._closed
            or shard.generation != generation
            or shard.state != STATE_RESTARTING
        ):
            return
        assert self._loop is not None
        shard.restart_task = self._loop.create_task(self._respawn(shard))

    async def _respawn(self, shard: _Shard) -> None:
        """Replace a dead incarnation with a fresh worker process."""
        next_generation = shard.generation + 1
        config = {**self._worker_config, "generation": next_generation}

        def spawn():
            context = multiprocessing.get_context(self._start_method)
            requests = context.Queue()
            responses = context.Queue()
            previous_blas = pin_blas_threads(blas_thread_budget(self.num_shards))
            try:
                process = context.Process(
                    target=_shard_worker_main,
                    args=(shard.index, requests, responses, config),
                    daemon=True,
                    name=f"repro-shard-{shard.index}-g{next_generation}",
                )
                process.start()
            finally:
                restore_blas_threads(previous_blas)
            return process, requests, responses

        assert self._loop is not None
        try:
            process, requests, responses = await self._loop.run_in_executor(
                None, spawn
            )
        except Exception:  # pragma: no cover - spawn machinery failure
            shard.state = STATE_BROKEN
            self._drain_parked()
            return
        finally:
            shard.restart_task = None
        if self._closed:
            # Closed while spawning: shut the fresh worker straight down.
            try:
                requests.put(("shutdown",))
            except Exception:  # pragma: no cover
                pass
            return
        # Retire the dead incarnation's queues; its reader thread exits on
        # the resulting OSError/EOFError (or its next idle tick).
        for channel in (shard.requests, shard.responses):
            try:
                channel.close()
                channel.cancel_join_thread()
            except Exception:  # pragma: no cover
                pass
        shard.process, shard.requests, shard.responses = (
            process,
            requests,
            responses,
        )
        shard.generation = next_generation
        shard.chain_keys = set()  # the new incarnation holds no chain yet
        shard.ready = False
        shard.last_pong = time.monotonic()
        shard.wedged = False
        shard.alive = True
        shard.state = STATE_UP
        self.stats.restarts[shard.index] = (
            self.stats.restarts.get(shard.index, 0) + 1
        )
        self._start_shard_threads(shard)
        self._drain_parked()

    async def _heartbeat_loop(self) -> None:
        """Ping live shards; kill and restart the ones that stop answering."""
        assert self.heartbeat_interval is not None
        assert self.heartbeat_timeout is not None
        while not self._closed:
            await asyncio.sleep(self.heartbeat_interval)
            if self._closed:
                return
            now = time.monotonic()
            for shard in self._shards:
                if shard.closing or not shard.alive or shard.state != STATE_UP:
                    continue
                if shard.wedged:
                    continue  # already killed; the exit handler is pending
                limit = self.heartbeat_timeout
                if not shard.ready:
                    # A booting worker imports numpy/scipy before its first
                    # pong; don't mistake a slow import for a wedge.
                    limit = max(limit, BOOT_GRACE)
                if now - shard.last_pong > limit:
                    self.stats.heartbeat_misses[shard.index] = (
                        self.stats.heartbeat_misses.get(shard.index, 0) + 1
                    )
                    shard.wedged = True
                    try:
                        shard.process.kill()
                    except Exception:  # pragma: no cover - already gone
                        pass
                    # The process watcher drives the restart path from here.
                    continue
                try:
                    shard.requests.put(("ping", next(self._ids)))
                except Exception:  # pragma: no cover - queue torn down
                    pass

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _route(self, entries: list[_Inflight]) -> list[Exception]:
        """Route submissions and send one ``requests`` message per shard.

        Each entry goes to its owner shard, a failover candidate, or the
        parked list (:meth:`_place`).  An entry that cannot be placed fails
        its own future; the errors are returned.
        """
        batches: dict[int, list[tuple[int, bytes]]] = {}
        errors: list[Exception] = []
        for entry in entries:
            try:
                target = self._place(entry)
            except Exception as error:  # no route left, or an unsendable chain
                self.stats.failed += 1
                entry.future.set_exception(error)
                errors.append(error)
                continue
            if target is not None:
                batches.setdefault(target.index, []).append(
                    (entry.request_id, entry.payload)
                )
        for index, batch in batches.items():
            self._shards[index].requests.put(("requests", batch))
        return errors

    def _place(self, entry: _Inflight) -> _Shard | None:
        """Pick one submission's shard and register it there (None: parked).

        The request's chain goes out first when the target's current
        incarnation does not hold it yet (see the module docstring's
        ordering rule).  Raises :class:`ShardCrashed` when no shard is up
        *and* none is restarting (every candidate circuit-broken or failover
        disabled), and a pickling error when the chain cannot be sent.
        """
        assert entry.request is not None
        chain = entry.request.chain
        owner = shard_for_fingerprint(chain.fingerprint, self.num_shards)
        width = self.num_shards if self.failover else 1
        target: _Shard | None = None
        restart_pending = False
        for offset in range(width):
            candidate = self._shards[(owner + offset) % self.num_shards]
            if candidate.alive and candidate.state == STATE_UP:
                target = candidate
                break
            if candidate.state == STATE_RESTARTING:
                restart_pending = True
        if target is None:
            if restart_pending:
                entry.parked = True
                entry.shard_index = None
                entry.request_id = None
                self._parked.append(entry)
                return None
            raise ShardCrashed(
                f"chain {chain.fingerprint[:12]}... cannot be "
                f"served: owner shard {owner} is {self._shards[owner].state} "
                f"and no failover shard is available"
            )
        key = chain.content_key
        if key not in target.chain_keys:
            # Pickled here, once per incarnation, and never kept: front
            # memory holds no chain bytes beyond the queue's send buffer.
            chain_bytes = pickle.dumps(chain)
            target.requests.put(("chain", key, chain_bytes))
            target.chain_keys.add(key)
            self.stats.chain_uploads += 1
            self.stats.chain_bytes += len(chain_bytes)
        if target.index != owner:
            self.stats.failovers[owner] = self.stats.failovers.get(owner, 0) + 1
        request_id = next(self._ids)
        entry.parked = False
        entry.shard_index = target.index
        entry.request_id = request_id
        target.inflight[request_id] = entry
        self.stats.routed[target.index] = (
            self.stats.routed.get(target.index, 0) + 1
        )
        self.stats.request_bytes += len(entry.payload)
        return target

    def _drain_parked(self) -> None:
        """Re-dispatch parked submissions after a shard state change."""
        parked, self._parked = self._parked, []
        self._route([entry for entry in parked if not entry.future.done()])

    def _discard_entry(self, entry: _Inflight) -> None:
        """Drop a settled/abandoned submission from wherever it lives now."""
        if entry.parked:
            try:
                self._parked.remove(entry)
            except ValueError:  # pragma: no cover - raced with a drain
                pass
            entry.parked = False
        elif entry.shard_index is not None and entry.request_id is not None:
            self._shards[entry.shard_index].inflight.pop(entry.request_id, None)

    def _entry_detail(self, entry: _Inflight) -> str | None:
        if entry.parked:
            return "the request was parked waiting for a shard restart"
        if entry.shard_index is not None:
            return f"the request was in flight on shard {entry.shard_index}"
        return None  # pragma: no cover - settled before the deadline fired

    def _fail_inflight(self, shard: _Shard, error: BaseException) -> None:
        for entry in list(shard.inflight.values()):
            if not entry.future.done():
                if entry.request is not None:
                    self.stats.failed += 1
                entry.future.set_exception(error)
        shard.inflight.clear()

    def _handle_response(self, shard: _Shard, message: tuple) -> None:
        kind, request_id = message[0], message[1]
        entry = shard.inflight.pop(request_id, None)
        if entry is None:  # deadline expired, retried elsewhere, or stale
            return
        if entry.future.done():
            return
        if kind == "result":
            payload = message[2]
            self.stats.completed += 1
            entry.future.set_result(
                MeasureResult(
                    request=entry.request,
                    times=payload["times"],
                    values=payload["values"],
                    group_index=payload["group_index"],
                    lumped_states=payload["lumped_states"],
                    _squeeze=payload["squeeze"],
                )
            )
        elif kind == "error":
            error, text = message[2], message[3]
            if error is None:
                error = RuntimeError(f"shard {shard.index} request failed: {text}")
            self.stats.failed += 1
            entry.future.set_exception(error)
        else:  # stats snapshot
            entry.future.set_result(message[2])

    # ------------------------------------------------------------------
    # submission API (mirrors ScenarioService)
    # ------------------------------------------------------------------
    def _ensure_ready(self) -> None:
        if self._closed:
            raise ServiceClosed("the sharded scenario service has been closed")
        if not self._started:
            raise RuntimeError(
                "ShardedScenarioService must be started first "
                "(use 'async with' or await start())"
            )

    def _inflight_count(self) -> int:
        dispatched = sum(
            1
            for shard in self._shards
            for entry in shard.inflight.values()
            if entry.request is not None
        )
        return dispatched + len(self._parked)

    def shard_index_for(self, request: MeasureRequest) -> int:
        """The shard that *owns* this request's chain (ignoring failover)."""
        return shard_for_fingerprint(request.chain.fingerprint, self.num_shards)

    async def submit(
        self, request: MeasureRequest, timeout: float | None = None
    ) -> MeasureResult:
        """Route one request to a shard and await the result.

        Semantics match :meth:`ScenarioService.submit`: values are
        bit-comparable to a single-process service (same numerical path,
        executed in the worker), :class:`QueueFull` applies backpressure at
        ``max_pending`` in-flight submissions, and a ``timeout`` abandons
        only this caller's future.  Worker deaths are transparent while
        the retry budget lasts; :class:`ShardCrashed` is raised fast only
        when no shard can serve the chain at all (counted in
        ``stats.routed_dead``).  The one-request case of
        :meth:`submit_many`.
        """
        (result,) = await self.submit_many([request], timeout=timeout)
        return result

    async def submit_many(
        self, requests: list[MeasureRequest], timeout: float | None = None
    ) -> list[MeasureResult]:
        """Route several requests and await all their results.

        The payloads are pickled in one executor hop, and each shard the
        requests touch gets them in one ``requests`` message, so the batch
        plans there as one flush.  Each request keeps the semantics of
        :meth:`submit`: at ``max_pending`` every request of the call is
        rejected (each counted in ``stats.rejected``), and deadlines,
        retries, failover and errors apply to each request alone.  Like
        :meth:`ScenarioService.submit_many`, the first failure is raised
        only after every sibling future has settled.
        """
        self._ensure_ready()
        requests = list(requests)
        assert self._loop is not None
        # The first content key of a chain object hashes its rate matrix;
        # keep that (and the pickling) off the event loop, which also serves
        # HTTP traffic.
        payloads = await self._loop.run_in_executor(
            None, _request_payloads, requests
        )
        return await self._submit_payloads(requests, payloads, timeout)

    async def _submit_payloads(
        self,
        requests: Sequence[MeasureRequest],
        payloads: Sequence[bytes | Exception],
        timeout: float | None,
    ) -> list[MeasureResult]:
        """Route pickled requests and await them (see :meth:`submit_many`)."""
        if (
            self.max_pending is not None
            and self._inflight_count() >= self.max_pending
        ):
            self.stats.rejected += len(requests)
            raise QueueFull(
                f"sharded service has {self._inflight_count()} requests in flight "
                f"(max_pending={self.max_pending}); back off and resubmit"
            )
        assert self._loop is not None
        entries = [
            _Inflight(future=self._loop.create_future(), request=request, payload=payload)
            for request, payload in zip(requests, payloads)
            if not isinstance(payload, Exception)
        ]
        self.stats.submissions += len(entries)
        self.stats.routed_dead += sum(
            isinstance(error, ShardCrashed) for error in self._route(entries)
        )
        timeout = self.default_timeout if timeout is None else timeout
        settled = iter(
            await asyncio.gather(
                *(self._settle(entry, timeout) for entry in entries),
                return_exceptions=True,
            )
        )
        outcomes = [
            payload if isinstance(payload, Exception) else next(settled)
            for payload in payloads
        ]
        for outcome in outcomes:
            if isinstance(outcome, BaseException):
                raise outcome
        return outcomes

    async def _settle(self, entry: _Inflight, timeout: float | None) -> MeasureResult:
        """Await one submission under its deadline, then forget it."""
        try:
            return await await_with_deadline(
                entry.future,
                timeout,
                self.stats,
                detail=partial(self._entry_detail, entry),
            )
        finally:
            self._discard_entry(entry)

    async def submit_scenario(
        self, name: str, points: int | None = None, timeout: float | None = None
    ) -> list[tuple[MeasureRequest, MeasureResult]]:
        """Expand a registered scenario and fan its family out over the shards.

        Each (spec, ``points``) is expanded and pickled once: the requests
        and their wire payloads are kept in :attr:`artifacts` under the
        ``scenario`` kind, so a warm family is routed from the event loop
        with no expansion, no pickling and no executor hop.  A first
        expansion (state-space construction) and its pickling run on a
        parent-side worker thread.  The requests are routed per chain, so
        every curve of the family lands on the shard owning its chain.
        """
        self._ensure_ready()
        expansion = await cached_expansion(
            self.artifacts,
            self.registry.get(name),
            points,
            self._expander,
            partial(_wire_expansion, self.registry),
        )
        results = await self._submit_payloads(
            expansion.requests, expansion.payloads, timeout
        )
        return list(zip(expansion.requests, results))

    # ------------------------------------------------------------------
    # shared-nothing stats aggregation
    # ------------------------------------------------------------------
    def _placeholder_snapshot(self, shard: _Shard) -> ShardSnapshot:
        return ShardSnapshot(
            index=shard.index,
            alive=shard.alive,
            state=shard.state,
            generation=shard.generation,
            restarts=self.stats.restarts.get(shard.index, 0),
        )

    async def shard_snapshots(
        self, timeout: float | None = None
    ) -> list[ShardSnapshot]:
        """One :class:`ShardSnapshot` per shard (down shards marked, not raised).

        ``timeout`` defaults to the ``snapshot_timeout`` constructor knob.
        """
        self._ensure_ready()
        assert self._loop is not None
        timeout = self.snapshot_timeout if timeout is None else timeout

        async def snapshot(shard: _Shard) -> ShardSnapshot:
            if not shard.alive or shard.state != STATE_UP:
                return self._placeholder_snapshot(shard)
            request_id = next(self._ids)
            entry = _Inflight(future=self._loop.create_future(), request=None)
            entry.shard_index = shard.index
            entry.request_id = request_id
            shard.inflight[request_id] = entry
            try:
                shard.requests.put(("stats", request_id))
                service, cache, fingerprints, threads = await asyncio.wait_for(
                    entry.future, timeout
                )
            except (asyncio.TimeoutError, ShardCrashed, ServiceClosed):
                return self._placeholder_snapshot(shard)
            finally:
                shard.inflight.pop(request_id, None)
            return ShardSnapshot(
                index=shard.index,
                alive=True,
                service=service,
                cache=cache,
                fingerprints=frozenset(fingerprints),
                threads=threads,
                state=shard.state,
                generation=shard.generation,
                restarts=self.stats.restarts.get(shard.index, 0),
            )

        return list(await asyncio.gather(*(snapshot(s) for s in self._shards)))

    async def metrics_records(self) -> list[Record]:
        """The records ``GET /metrics`` renders for the sharded front.

        The shards' :class:`ServiceStats` and :class:`CacheStats` summed into
        the series a single-process service exposes (so dashboards work
        unchanged), this process's optimizer counters, the front's routing
        and supervision counters (every shard listed, zeros included) and
        the per-shard gauges of this snapshot round.  Each shard counts
        over its lifetime, restarted incarnations included
        (:meth:`_Shard.lifetime_snapshots`), so counters never go backwards.
        """
        from repro.optimize.stats import global_optimizer_stats

        snapshots = await self.shard_snapshots()
        service, cache, gauges = ServiceStats(), CacheStats(), ShardGauges()
        zeros = dict.fromkeys(range(self.num_shards), 0)
        front = ShardedServiceStats(
            routed=dict(zeros),
            restarts=dict(zeros),
            failovers=dict(zeros),
            heartbeat_misses=dict(zeros),
        )
        front.absorb(self.stats)
        cache.absorb(self.artifacts.stats())  # the front's scenario expansions
        for shard, snapshot in zip(self._shards, snapshots):
            for part in shard.lifetime_snapshots(snapshot):
                service.absorb(part.service)
                cache.absorb(part.cache)
            gauges.alive[snapshot.index] = int(snapshot.alive)
            gauges.state[snapshot.index, snapshot.state] = 1
            gauges.owned_chains[snapshot.index] = len(snapshot.fingerprints)
        return [service, cache, global_optimizer_stats(), front, gauges]

    async def metrics_text(self) -> str:
        """The Prometheus text dump of :meth:`metrics_records`."""
        return render_metrics(*await self.metrics_records())
