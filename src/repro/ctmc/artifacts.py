"""The one store of reusable analysis intermediates.

Every measure of the paper bottoms out in the same handful of expensive
intermediates: absorbing transforms, lumping quotients, uniformized and
densified operators, Fox–Glynn tables, LU factorizations and BSCC
decompositions.  :class:`ArtifactCache` is their only home.  Five owners
take a cache or make a private one — :class:`repro.analysis.AnalysisSession`,
:class:`repro.service.ScenarioService`,
:class:`repro.ctmc.linsolve.SolverEngine`,
:class:`repro.csl.ModelChecker` and
:func:`repro.optimize.rollout_optimize` — and every function below them
takes the cache as a required argument and never branches on it.  A private
cache shares artifacts within its owner (one session, one service, one
checker); a cache handed to several owners shares them across all of them.

=================  ===================================================
kind               key
=================  ===================================================
``transformed``    (chain fingerprint, absorbing-mask bytes)
``quotient``       (chain fingerprint, observable signature) — the lumped
                   chain, ``None`` (nothing collapsed), or a
                   :class:`repro.analysis.planner.QuotientTombstone`
                   recording a failed build so later plans skip the doomed
                   refinement.  The planner's one quotient per chain is
                   keyed by ``"labels|"`` plus the chain's content key
``operator``       (chain fingerprint, uniformization rate
                   [, ``"backward"``]) — the CSR uniformized operator:
                   ``Pᵀ`` for the forward sweep, ``P`` (the ``"backward"``
                   key) for the backward value sweep
``foxglynn``       (q, bytes of a grid's sorted unique positive times,
                   epsilon [, ``"tails"``]) — the grid's
                   :class:`repro.ctmc.foxglynn.PoissonTable`, one row per
                   time point, or (``"tails"``) its tails table; stored
                   with a byte-size-aware weight
``factorization``  (chain fingerprint, system token) — LU factors of a
                   long-run linear system restricted to a state subset
                   (see :mod:`repro.ctmc.linsolve`)
``bscc``           (chain fingerprint,) — the BSCC decomposition
``stationary``     (chain fingerprint, subset signature) — one BSCC's
                   stationary vector
``absorption``     (chain fingerprint,) — the solved transient-to-BSCC
                   absorption-probability matrix
``embedded``       (chain fingerprint,) — the embedded (jump-chain)
                   transition matrix
``dense_operator`` (chain fingerprint, uniformization rate
                   [, ``"backward"``]) — the densified operator the
                   :class:`repro.ctmc.engines.DenseEngine` GEMM walk uses,
                   keyed like ``operator``; stored with a byte-size-aware
                   weight
``scenario``       (:class:`repro.service.ScenarioSpec`, ``points``
                   override) — one scenario family's expansion (its
                   read-only requests and, on the sharded front, their
                   wire payloads); stored with a byte-size-aware weight
=================  ===================================================

The first four kinds and ``dense_operator`` are populated by the planner
and the uniformization sweeps, the five between them by the long-run
linear-solver engine (:class:`repro.ctmc.linsolve.SolverEngine`), which
calls straight into :meth:`ArtifactCache.get_or_create`, and ``scenario``
by the services' ``submit_scenario``.  A spec is frozen and hashable, so a
family re-registered under its name keys a new entry.

Chains are keyed by :attr:`repro.ctmc.ctmc.CTMC.fingerprint` — a content
hash of the rate matrix — so a *rebuilt* chain with identical dynamics
still hits.  Fox–Glynn tables are keyed by the uniformization rate and the
grid alone, so sweeps of different chains with equal rates on one grid
(e.g. the FRF-1 and FFF-1 case-study chains, which share their
uniformization rate) share one table, and a whole grid costs one lookup.

The cache is thread-safe (a scenario service expands families on one
thread while it flushes on another) and deliberately caches *negative*
quotient results (``None`` — nothing collapsed) so repeat runs skip the
refinement as well.

**Weighted eviction.**  ``max_entries`` was tuned for CSR-sized artifacts;
a densified operator or the Fox–Glynn table of a 10,001-point grid can be
orders of magnitude larger, so entries carry a *weight* (default 1) and
eviction bounds the **total weight** rather than the raw entry count.
Dense operators and Fox–Glynn tables weigh
``ceil(nbytes / DENSE_WEIGHT_UNIT_BYTES)`` — one unit per CSR-operator-
equivalent — so a handful of big artifacts cannot silently blow the LRU
budget while ordinary artifacts keep their one-slot cost.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any, ClassVar

import numpy as np
from scipy import sparse

from repro.ctmc.ctmc import CTMC
from repro.ctmc.foxglynn import PoissonTable, fox_glynn_table
from repro.stats import Record, keyed

#: Default bound on the total cached-artifact weight (all kinds combined);
#: ordinary artifacts weigh 1, so for them this is an entry count.
DEFAULT_MAX_ENTRIES = 1024

#: One eviction-weight unit for byte-weighted artifacts — roughly the
#: memory footprint of one case-study CSR operator.
DENSE_WEIGHT_UNIT_BYTES = 256 * 1024

#: Sentinel distinguishing "never computed" from a cached ``None`` artifact.
_ABSENT = object()


@dataclass
class CacheKindStats(Record):
    """Hit/miss/eviction counters for one artifact kind."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses


@dataclass
class CacheStats(Record):
    """A snapshot of the cache's per-kind counters.

    Rendered as ``repro_cache_{hits,misses,evictions}_total``, one series
    per kind (label ``kind``).
    """

    label: ClassVar[str] = "cache"

    kinds: dict[str, CacheKindStats] = keyed("kind", CacheKindStats)

    def kind(self, name: str) -> CacheKindStats:
        return self.kinds.get(name, CacheKindStats())

    def misses_since(self, earlier: "CacheStats") -> dict[str, int]:
        """Per-kind miss deltas relative to an earlier snapshot.

        The scenario-service benchmark gates on this: a repeat portfolio
        sweep must report zero ``quotient`` and ``foxglynn`` misses.
        """
        return {
            name: stats.misses - earlier.kind(name).misses
            for name, stats in self.kinds.items()
        }


class ArtifactCache:
    """Bounded LRU cache of analysis artifacts, keyed by chain fingerprints.

    Parameters
    ----------
    max_entries:
        Upper bound on the total stored-artifact *weight* across all kinds
        (ordinary artifacts weigh 1, so for them this is an entry count);
        least-recently-used entries are evicted beyond it.  The most
        recent entry is always kept, even when it alone exceeds the budget.
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self.max_entries = int(max_entries)
        self._entries: OrderedDict[tuple, tuple[Any, int]] = OrderedDict()
        self._total_weight = 0
        self._stats: dict[str, CacheKindStats] = {}
        self._lock = threading.Lock()
        self._building: dict[tuple, threading.Lock] = {}

    # ------------------------------------------------------------------
    def get_or_create(
        self,
        kind: str,
        key: tuple,
        factory: Callable[[], Any],
        weight: int | Callable[[Any], int] = 1,
    ) -> Any:
        """Return the cached artifact for ``(kind, key)``, building it on miss.

        Exactly-once construction without a global stall: the cache-wide
        lock only guards the bookkeeping, while the factory runs under a
        *per-key* build lock — concurrent lookups of the same key wait for
        the one build (and then count a hit: nothing was recomputed), but
        builds of unrelated keys proceed in parallel on other threads.

        ``weight`` is the entry's eviction cost (an int, or a callable
        applied to the freshly built value — used for byte-size-aware
        accounting of dense arrays).
        """
        full_key = (kind, key)
        with self._lock:
            stats = self._stats.setdefault(kind, CacheKindStats())
            entry = self._entries.get(full_key, _ABSENT)
            if entry is not _ABSENT:
                stats.hits += 1
                self._entries.move_to_end(full_key)
                return entry[0]
            build_lock = self._building.setdefault(full_key, threading.Lock())
        with build_lock:
            with self._lock:
                entry = self._entries.get(full_key, _ABSENT)
                if entry is not _ABSENT:  # a racing thread built it meanwhile
                    stats.hits += 1
                    self._entries.move_to_end(full_key)
                    return entry[0]
            try:
                value = factory()
            except BaseException:
                # Prune the build-lock entry so failed keys neither leak
                # nor poison later (retried) lookups.
                with self._lock:
                    self._building.pop(full_key, None)
                raise
            cost = max(1, int(weight(value) if callable(weight) else weight))
            with self._lock:
                stats.misses += 1
                self._entries[full_key] = (value, cost)
                self._total_weight += cost
                self._building.pop(full_key, None)
                while self._total_weight > self.max_entries and len(self._entries) > 1:
                    evicted_key, (_, evicted_cost) = self._entries.popitem(last=False)
                    self._total_weight -= evicted_cost
                    self._stats.setdefault(
                        evicted_key[0], CacheKindStats()
                    ).evictions += 1
            return value

    def lookup(self, kind: str, key: tuple) -> Any:
        """The stored artifact for ``(kind, key)``, or ``None`` if there is none.

        A found artifact counts as a hit; an absent one counts nothing, so
        a caller that must not build on its own thread (the event loop)
        reads here first and builds through :meth:`get_or_create`
        elsewhere, which counts the miss.  Only for kinds whose artifacts
        are never ``None``.
        """
        with self._lock:
            entry = self._entries.get((kind, key), _ABSENT)
            if entry is _ABSENT:
                return None
            self._stats.setdefault(kind, CacheKindStats()).hits += 1
            self._entries.move_to_end((kind, key))
            return entry[0]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def total_weight(self) -> int:
        """Current total eviction weight of all stored entries."""
        with self._lock:
            return self._total_weight

    def clear(self) -> None:
        """Drop all entries (counters are kept)."""
        with self._lock:
            self._entries.clear()
            self._total_weight = 0

    def stats(self) -> CacheStats:
        """A consistent snapshot of the per-kind counters."""
        snapshot = CacheStats()
        with self._lock:
            snapshot.absorb(CacheStats(self._stats))
        return snapshot

    def chain_fingerprints(self) -> frozenset[str]:
        """The chain fingerprints that currently key at least one artifact.

        Every kind except ``foxglynn`` (keyed by the uniformization rate and
        the grid alone) and ``scenario`` (keyed by a scenario spec) leads
        its key with the chain's content fingerprint.
        The sharded-service benchmark gates on per-shard fingerprint sets
        being disjoint: routing by fingerprint must never build the same
        chain's artifacts on two shards.
        """
        with self._lock:
            return frozenset(
                key[0]
                for kind, key in self._entries
                if kind not in ("foxglynn", "scenario") and key and isinstance(key[0], str)
            )

    # ------------------------------------------------------------------
    # typed convenience lookups (the keys documented in the module docstring)
    # ------------------------------------------------------------------
    def transformed_chain(self, base: CTMC, absorbing_mask: np.ndarray) -> CTMC:
        """``base`` with the masked states made absorbing, cached by content."""
        return self.get_or_create(
            "transformed",
            (base.fingerprint, absorbing_mask.tobytes()),
            lambda: base.make_absorbing(absorbing_mask),
        )

    def quotient(self, chain: CTMC, signature: str, factory: Callable[[], Any]) -> Any:
        """A lumping quotient per (chain, observable signature); may be ``None``."""
        return self.get_or_create("quotient", (chain.fingerprint, signature), factory)

    def operator(self, chain: CTMC, backward: bool = False) -> tuple[sparse.csr_matrix, float]:
        """The uniformized operator of ``chain`` at its default rate, and the rate.

        The forward sweep walks ``Pᵀ``; ``backward`` keys the non-transposed
        ``P`` of the backward value sweep apart from it, as
        :meth:`dense_operator` does.  The cached matrix itself is returned:
        no sweep mutates its operator.
        """
        key = (chain.fingerprint, float(chain.max_exit_rate))
        if backward:
            return self.get_or_create(
                "operator", key + ("backward",), chain.uniformized_matrix
            )
        return self.get_or_create("operator", key, chain.uniformized_transpose)

    def poisson_table(
        self, rate: float, times: np.ndarray, epsilon: float, *, tails: bool = False
    ) -> PoissonTable:
        """Fox–Glynn weights of the Poisson rates ``rate·times``, as one table.

        ``times`` are a grid's unique positive time points, sorted.  The
        table has one row per time point and is shared by every chain
        uniformized at ``rate``; ``tails`` gives its tails table instead
        (see :meth:`repro.ctmc.foxglynn.PoissonTable.tails`), cached beside
        it.  Weighted by byte size, like :meth:`dense_operator`.
        """
        key = (float(rate), np.asarray(times, dtype=float).tobytes(), float(epsilon))
        if tails:
            return self.get_or_create(
                "foxglynn",
                key + ("tails",),
                lambda: self.poisson_table(rate, times, epsilon).tails(),
                weight=lambda table: _byte_weight(table.nbytes),
            )
        return self.get_or_create(
            "foxglynn",
            key,
            lambda: fox_glynn_table(rate * np.asarray(times, dtype=float), epsilon),
            weight=lambda table: _byte_weight(table.nbytes),
        )

    def scenario(
        self, spec: Any, points: int | None, factory: Callable[[], Any] | None = None
    ) -> Any:
        """A scenario family's expansion per (spec, ``points`` override).

        Without a ``factory`` this is a :meth:`lookup`: the stored expansion
        (a hit) or ``None``.  The factory's value exposes ``nbytes``, by
        which it is weighed, like :meth:`dense_operator`.
        """
        if factory is None:
            return self.lookup("scenario", (spec, points))
        return self.get_or_create(
            "scenario",
            (spec, points),
            factory,
            weight=lambda value: _byte_weight(value.nbytes),
        )

    def dense_operator(
        self,
        chain: CTMC,
        rate: float,
        factory: Callable[[], np.ndarray],
        backward: bool = False,
    ) -> np.ndarray:
        """The densified operator for the dense GEMM backend.

        Weighted by byte size (one unit per :data:`DENSE_WEIGHT_UNIT_BYTES`)
        so a few large ``toarray()`` results cannot crowd out the rest of
        the budget that was tuned for CSR-sized artifacts.  ``backward``
        keys the non-transposed operator ``P`` of the backward value sweep
        separately — ``P`` and ``Pᵀ`` of one chain share the same
        (fingerprint, rate) and must not shadow each other.
        """
        key = (chain.fingerprint, float(rate))
        if backward:
            key = key + ("backward",)
        return self.get_or_create(
            "dense_operator",
            key,
            factory,
            weight=lambda value: _byte_weight(value.nbytes),
        )


def _byte_weight(nbytes: int) -> int:
    """Eviction weight of an artifact of ``nbytes``: one unit per started
    :data:`DENSE_WEIGHT_UNIT_BYTES`."""
    return -(-int(nbytes) // DENSE_WEIGHT_UNIT_BYTES)

