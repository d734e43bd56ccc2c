"""Deterministic fault injection for the sharded scenario service.

The supervision layer in :mod:`repro.service.shard` claims the service is
self-healing; this module is how that claim is *proved*.  A
:class:`ChaosPolicy` is a seeded, fully deterministic schedule of faults
hooked into the worker side of the shard wire protocol:

``kill``
    The worker calls ``os._exit`` the moment it reaches its N-th request —
    a hard crash with requests in flight, exactly what a segfaulting or
    OOM-killed worker looks like from the parent.
``wedge``
    The worker blocks its request reader in a synchronous sleep.  The process
    stays *alive* (``process.join()`` never fires), so only the heartbeat
    liveness timeout can detect it — this is the scenario plain
    exit-watching supervision cannot handle.
``corrupt``
    The response payload of the N-th request is replaced with undecodable
    garbage, exercising the parent's defensive decode path: the fault must
    fail exactly its own request, never the reader thread.
``delay``
    The response of the N-th request is held back for ``delay`` seconds
    (asynchronously — the worker keeps serving its other requests).
``drop``
    The response of the N-th request is computed and then discarded; only
    the caller's own deadline can recover it.

Events are addressed by ``(shard, generation, at_message)`` where
``at_message`` counts *requests*: each entry of a ``requests`` message
counts once, so a family sent as one message advances the counter by its
size.  Chain uploads and heartbeat pings do not advance it, so
monitoring never shifts a schedule.  ``generation`` is the
worker incarnation — generation 0 is the initially spawned worker, each
supervisor restart increments it.  Keying on the generation is what lets a
schedule say "kill this shard once": the respawned worker runs fault-free
instead of dying in a loop.

:meth:`ChaosPolicy.from_seed` derives the benchmark/CI schedule — one death
per shard (one of them a wedge) at a seeded mid-run position — from a
single integer, so CI can rotate the schedule per run
(``REPRO_CHAOS_SEED=$GITHUB_RUN_ID``) while any failure stays reproducible
from the logged seed.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Iterable

#: The fault kinds a :class:`ChaosEvent` may carry.
CHAOS_ACTIONS = ("kill", "wedge", "corrupt", "delay", "drop")

#: Environment variable CI uses to rotate the generated schedule per run.
CHAOS_SEED_ENV = "REPRO_CHAOS_SEED"

#: Default number of seconds a wedged worker holds its message loop.  Far
#: beyond any heartbeat timeout; the supervisor kills the process long
#: before the sleep returns.
DEFAULT_WEDGE_HOLD = 3600.0


def chaos_seed(default: int = 20100628) -> int:
    """The chaos seed from ``REPRO_CHAOS_SEED``, or ``default``.

    The fallback is the paper's DSN 2010 presentation date, for want of a
    more meaningful constant; what matters is that every consumer of the
    rotating-seed convention resolves it identically.
    """
    value = os.environ.get(CHAOS_SEED_ENV, "").strip()
    return int(value) if value else default


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled fault: *what* happens to *which* worker and *when*.

    Parameters
    ----------
    action:
        One of :data:`CHAOS_ACTIONS`.
    shard:
        Index of the target shard.
    at_message:
        1-based request ordinal within the worker (each entry of a
        ``requests`` message counts once); the fault fires when the worker
        reaches (``kill``/``wedge``) or answers (``corrupt``/``delay``/
        ``drop``) that request.
    generation:
        Worker incarnation the event applies to (0 = initial spawn).
    delay:
        Seconds for ``delay`` responses / hold time for ``wedge``.
    exit_code:
        Process exit status used by ``kill``.
    """

    action: str
    shard: int
    at_message: int
    generation: int = 0
    delay: float = 0.0
    exit_code: int = 1

    def __post_init__(self) -> None:
        if self.action not in CHAOS_ACTIONS:
            raise ValueError(
                f"unknown chaos action {self.action!r}; "
                f"expected one of {CHAOS_ACTIONS}"
            )
        if self.shard < 0:
            raise ValueError("shard index must be non-negative")
        if self.at_message < 1:
            raise ValueError("at_message is 1-based and must be >= 1")
        if self.generation < 0:
            raise ValueError("generation must be non-negative")
        if self.delay < 0.0:
            raise ValueError("delay must be non-negative")


class ChaosPolicy:
    """A deterministic schedule of :class:`ChaosEvent` faults.

    Policies are immutable, picklable (they travel to the spawned workers
    inside the shard config) and validated up front: two events addressing
    the same ``(shard, generation, at_message)`` slot would make the
    schedule ambiguous and are rejected.
    """

    def __init__(
        self, events: Iterable[ChaosEvent] = (), seed: int | None = None
    ) -> None:
        self.events = tuple(events)
        self.seed = seed
        slots = [(e.shard, e.generation, e.at_message) for e in self.events]
        duplicates = {slot for slot in slots if slots.count(slot) > 1}
        if duplicates:
            raise ValueError(
                f"conflicting chaos events for (shard, generation, message) "
                f"slots {sorted(duplicates)}"
            )

    @classmethod
    def from_seed(
        cls,
        seed: int,
        num_shards: int,
        *,
        first_message: int = 2,
        horizon: int = 10,
        wedge_shards: int = 1,
        wedge_hold: float = DEFAULT_WEDGE_HOLD,
    ) -> "ChaosPolicy":
        """The standard resilience schedule: every shard dies exactly once.

        One generation-0 death per shard at a seeded position in
        ``[first_message, horizon]``; ``wedge_shards`` of them are wedges
        (recovered only via the heartbeat timeout), the rest hard kills.
        Same seed, same schedule — the CI gate logs the seed so any failure
        replays exactly.
        """
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        if not 1 <= first_message <= horizon:
            raise ValueError("need 1 <= first_message <= horizon")
        rng = random.Random(seed)
        wedged = set(rng.sample(range(num_shards), min(wedge_shards, num_shards)))
        events = []
        for shard in range(num_shards):
            at_message = rng.randint(first_message, horizon)
            if shard in wedged:
                events.append(
                    ChaosEvent("wedge", shard, at_message, delay=wedge_hold)
                )
            else:
                events.append(ChaosEvent("kill", shard, at_message))
        return cls(events, seed=seed)

    def script_for(self, shard: int, generation: int) -> dict[int, ChaosEvent]:
        """The worker-side schedule: ``at_message -> event`` for one incarnation."""
        return {
            event.at_message: event
            for event in self.events
            if event.shard == shard and event.generation == generation
        }

    def describe(self) -> list[dict]:
        """The schedule as JSON-friendly dicts (benchmark reports, logs)."""
        return [
            {
                "action": event.action,
                "shard": event.shard,
                "at_message": event.at_message,
                "generation": event.generation,
                "delay": event.delay,
            }
            for event in self.events
        ]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ChaosPolicy) and self.events == other.events

    def __hash__(self) -> int:
        return hash(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"ChaosPolicy(events={self.events!r}, seed={self.seed!r})"
