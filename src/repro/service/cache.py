"""Process-wide artifact cache for expensive analysis intermediates.

Scenario portfolios evaluate the same underlying Markov models over and
over: every flush of the scenario service (and every standalone session
pointed at the cache) needs the same absorbing transforms, the same lumping
quotients, the same uniformized operators and largely the same Fox–Glynn
windows.  :class:`ArtifactCache` keeps all four families in one bounded,
hit/miss-instrumented LRU store:

=================  ===================================================
kind               key
=================  ===================================================
``transformed``    (chain fingerprint, absorbing-mask bytes)
``quotient``       (chain fingerprint, observable signature) — the lumped
                   chain, ``None`` (nothing collapsed), or a
                   :class:`repro.analysis.planner.QuotientTombstone`
                   recording a failed build so warm plans skip the doomed
                   refinement.  The planner's one quotient per chain is
                   keyed by ``"labels|"`` plus the chain's content key
``operator``       (chain fingerprint, uniformization rate)
``foxglynn``       (q·t, epsilon)
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
                   :class:`repro.ctmc.engines.DenseEngine` GEMM walk uses;
                   the ``"backward"`` component marks the *non-transposed*
                   matrix of the backward value sweep so it cannot
                   shadow the forward (transposed) operator; stored with a
                   byte-size-aware weight (see below)
=================  ===================================================

The first four kinds and ``dense_operator`` are populated by the
uniformization (transient) path, the five between them by the long-run
linear-solver engine (:class:`repro.ctmc.linsolve.SolverEngine`), which
calls straight into :meth:`ArtifactCache.get_or_create`.

Chains are keyed by :attr:`repro.ctmc.ctmc.CTMC.fingerprint` — a content
hash of the rate matrix — so a *rebuilt* chain with identical dynamics
still hits.  Fox–Glynn windows are keyed by the Poisson rate product
``q·t`` alone, so groups on different chains with equal ``q·t`` (e.g. the
FRF-1 and FFF-1 case-study chains, which share their uniformization rate)
share windows too.

The cache is thread-safe (the scenario service executes independent groups
on a worker pool) and deliberately caches *negative* quotient results
(``None`` — nothing collapsed) so repeat runs skip the refinement as well.
:data:`GLOBAL_ARTIFACTS` is the process-wide default instance.

**Weighted eviction.**  ``max_entries`` was tuned for CSR-sized artifacts;
a densified operator can be orders of magnitude larger, so entries carry a
*weight* (default 1) and eviction bounds the **total weight** rather than
the raw entry count.  Dense operators weigh
``ceil(nbytes / DENSE_WEIGHT_UNIT_BYTES)`` — one unit per CSR-operator-
equivalent — so a handful of big ``toarray()`` results cannot silently
blow the LRU budget while ordinary artifacts keep their one-slot cost.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.ctmc.ctmc import CTMC
from repro.ctmc.foxglynn import FoxGlynnWeights, fox_glynn

#: Default bound on the total cached-artifact weight (all kinds combined);
#: ordinary artifacts weigh 1, so for them this is an entry count.
DEFAULT_MAX_ENTRIES = 1024

#: One eviction-weight unit for byte-weighted artifacts — roughly the
#: memory footprint of one case-study CSR operator.
DENSE_WEIGHT_UNIT_BYTES = 256 * 1024

#: Sentinel distinguishing "never computed" from a cached ``None`` artifact.
_ABSENT = object()


@dataclass
class CacheKindStats:
    """Hit/miss/eviction counters for one artifact kind."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def copy(self) -> "CacheKindStats":
        return CacheKindStats(self.hits, self.misses, self.evictions)


@dataclass
class CacheStats:
    """A snapshot of the cache's per-kind counters."""

    kinds: dict[str, CacheKindStats] = field(default_factory=dict)

    def kind(self, name: str) -> CacheKindStats:
        return self.kinds.get(name, CacheKindStats())

    def absorb(self, other: "CacheStats") -> None:
        """Accumulate another snapshot (e.g. one shard's cache counters)."""
        for name, stats in other.kinds.items():
            mine = self.kinds.setdefault(name, CacheKindStats())
            mine.hits += stats.hits
            mine.misses += stats.misses
            mine.evictions += stats.evictions

    def misses_since(self, earlier: "CacheStats") -> dict[str, int]:
        """Per-kind miss deltas relative to an earlier snapshot.

        The scenario-service benchmark gates on this: a repeat portfolio
        sweep must report zero ``quotient`` and ``foxglynn`` misses.
        """
        return {
            name: stats.misses - earlier.kind(name).misses
            for name, stats in self.kinds.items()
        }

    def summary(self) -> str:
        """One line for CLI output and logs."""
        parts = [
            f"{name}={stats.hits}h/{stats.misses}m"
            + (f"/{stats.evictions}e" if stats.evictions else "")
            for name, stats in sorted(self.kinds.items())
        ]
        return "cache: " + (" ".join(parts) if parts else "(empty)")

    def metrics(self, prefix: str = "repro_cache") -> str:
        """A ``/metrics``-style text dump, one labelled series per kind.

        Complements :meth:`repro.service.ServiceStats.metrics`; printed by
        ``python -m repro serve --metrics``.
        """
        lines: list[str] = []
        for counter in ("hits", "misses", "evictions"):
            metric = f"{prefix}_{counter}_total"
            lines.append(f"# TYPE {metric} counter")
            for name, stats in sorted(self.kinds.items()):
                lines.append(f'{metric}{{kind="{name}"}} {getattr(stats, counter)}')
        return "\n".join(lines)


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
        builds of unrelated keys proceed in parallel on the worker pool.

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
        with self._lock:
            return CacheStats(
                {name: counters.copy() for name, counters in self._stats.items()}
            )

    def chain_fingerprints(self) -> frozenset[str]:
        """The chain fingerprints that currently key at least one artifact.

        Every kind except ``foxglynn`` (which is keyed by the rate product
        ``q·t`` alone) leads its key with the chain's content fingerprint.
        The sharded-service benchmark gates on per-shard fingerprint sets
        being disjoint: routing by fingerprint must never build the same
        chain's artifacts on two shards.
        """
        with self._lock:
            return frozenset(
                key[0]
                for kind, key in self._entries
                if kind != "foxglynn" and key and isinstance(key[0], str)
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

    def uniformized_transpose(self, chain: CTMC) -> tuple[Any, float]:
        """The forward operator ``(Pᵀ, q)`` of ``chain`` at its default rate.

        Unlike :meth:`repro.ctmc.ctmc.CTMC.uniformized_transpose` this
        returns the cached matrix itself (no defensive copy): the sweep
        never mutates its operator, and skipping the copy is the point of
        sharing it across flushes.
        """
        rate = float(chain.max_exit_rate)
        return self.get_or_create(
            "operator",
            (chain.fingerprint, rate),
            lambda: chain.uniformized_transpose(),
        )

    def fox_glynn_window(self, rate_product: float, epsilon: float) -> FoxGlynnWeights:
        """Fox–Glynn weights for Poisson rate ``q·t``, shared across chains."""
        return self.get_or_create(
            "foxglynn",
            (float(rate_product), float(epsilon)),
            lambda: fox_glynn(rate_product, epsilon),
        )

    def dense_operator(
        self,
        chain: CTMC,
        rate: float,
        factory: Callable[[], np.ndarray],
        backward: bool = False,
    ) -> np.ndarray:
        """The densified forward operator for the dense GEMM backend.

        Weighted by byte size (one unit per :data:`DENSE_WEIGHT_UNIT_BYTES`)
        so a few large ``toarray()`` results cannot crowd out the rest of
        the budget that was tuned for CSR-sized artifacts.  ``backward``
        keys the non-transposed operator ``P`` of the interval value sweep
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
            weight=lambda value: -(-int(value.nbytes) // DENSE_WEIGHT_UNIT_BYTES),
        )


#: The process-wide cache the scenario service (and anything else that asks
#: for cross-session artifact sharing) uses by default.
GLOBAL_ARTIFACTS = ArtifactCache()
