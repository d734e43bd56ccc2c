"""Workload processes the benchmark driver (``run.py``) starts.

Each sub-command runs in a fresh interpreter with the pinned environment
from :func:`common.child_env` and reports to its parent through JSON lines
on standard output:

``cold_lumped``
    Set-up expands every ``paper_registry()`` family (building the state
    spaces); then cold ``AnalysisSession(lump=True)`` runs over the expanded
    requests, without an artifact cache, are timed until ``--seconds``
    have passed.  A traced run reports the set-up's layers with the
    ``ready`` event and the sessions' layers with ``done``.
``warm_server``
    A 2-shard ``ShardedScenarioService(lump=True)`` behind
    ``ScenarioHTTPServer`` on an ephemeral localhost port, driven by
    commands on standard input (``mark``, ``report``, ``stop``).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path

from common import curve_matches, curve_values, load_curves, peak_rss_mb, probe_s, tag_key
from layers import Tracer, install_computation_layers, install_front_layers

perf_counter = time.perf_counter

#: Shards behind the HTTP front of ``warm_http``.
NUM_SHARDS = 2


def emit(message: dict) -> None:
    print(json.dumps(message), flush=True)


def finish_trace(tracer: Tracer | None, spans: str | None) -> dict | None:
    if tracer is None:
        return None
    if spans:
        tracer.write_spans(Path(spans))
    return tracer.summary()


# ----------------------------------------------------------------------
def cold_lumped(args: argparse.Namespace) -> None:
    tracer = None
    if args.trace:
        tracer = Tracer()
        install_computation_layers(tracer)
    from repro.analysis import AnalysisSession
    from repro.service import paper_registry

    registry = paper_registry()
    requests = [
        request for name in registry.names for request in registry.expand(name)
    ]
    reference = load_curves()
    emit({
        "event": "ready",
        "requests": len(requests),
        "trace": None if tracer is None else tracer.summary(),
    })
    if tracer is not None:
        tracer.reset()

    deadline = perf_counter() + args.seconds
    durations: list[float] = []
    # Host-speed probes: one after the set-up, then one after each session.
    probes = [probe_s()]
    attempted = failed = 0
    while not durations or perf_counter() < deadline:
        session = AnalysisSession(lump=True)
        session.extend(requests)
        start = perf_counter()
        results = session.execute()
        durations.append(perf_counter() - start)
        probes.append(probe_s())
        for request, result in zip(requests, results):
            attempted += 1
            expected = reference.get(tag_key(request.tag))
            if expected is None or not curve_matches(expected, curve_values(result.squeezed)):
                failed += 1
    emit({
        "event": "done",
        "sessions_s": durations,
        "probes_s": probes,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": peak_rss_mb(),
        "trace": finish_trace(tracer, args.spans),
    })


# ----------------------------------------------------------------------
def _shard_counters(snapshots) -> dict:
    """Summed shard-side counters of one ``shard_snapshots()`` call."""
    counters: dict[str, float] = {}
    for snapshot in snapshots:
        if snapshot.service is not None:
            service = snapshot.service
            counters["flushes"] = counters.get("flushes", 0) + service.flushes
            session = service.session
            for name, value in (
                ("requests", session.requests),
                ("sweeps", session.sweeps),
                ("sweep_s", session.sweep_seconds),
                ("factor_s", session.factor_seconds),
                ("factorizations", session.factorizations),
            ):
                counters[name] = counters.get(name, 0) + value
        if snapshot.cache is not None:
            for kind, stats in snapshot.cache.kinds.items():
                for field in ("hits", "misses"):
                    key = f"cache.{field}.{kind}"
                    counters[key] = counters.get(key, 0) + getattr(stats, field)
    return counters


async def _serve(args: argparse.Namespace, tracer: Tracer | None) -> None:
    from repro.service import (
        ScenarioHTTPServer,
        ShardedScenarioService,
        paper_registry,
    )

    loop = asyncio.get_running_loop()
    async with ShardedScenarioService(
        NUM_SHARDS, lump=True, registry=paper_registry()
    ) as service:
        server = ScenarioHTTPServer(service, host="127.0.0.1", port=0)
        await server.start()
        emit({"event": "listening", "port": server.address[1]})
        before: dict = {}
        try:
            while True:
                command = (await loop.run_in_executor(None, sys.stdin.readline)).strip()
                if command == "mark":
                    before = _shard_counters(await service.shard_snapshots())
                    if tracer is not None:
                        tracer.reset()
                    emit({"event": "marked"})
                elif command == "report":
                    after = _shard_counters(await service.shard_snapshots())
                    emit({
                        "event": "report",
                        "shards": {
                            key: value - before.get(key, 0) for key, value in after.items()
                        },
                        "peak_rss_mb": peak_rss_mb(),
                        "trace": finish_trace(tracer, args.spans),
                    })
                else:  # "stop", or end of input when the driver went away
                    break
        finally:
            # The driver closes its connections before "stop"; let their
            # handlers see the end of stream instead of being cancelled.
            for _ in range(200):
                if not server.active_connections:
                    break
                await asyncio.sleep(0.01)
            await server.close()


def warm_server(args: argparse.Namespace) -> None:
    tracer = None
    if args.trace:
        tracer = Tracer()
        install_front_layers(tracer)
    asyncio.run(_serve(args, tracer))
    emit({"event": "stopped"})


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=["cold_lumped", "warm_server"])
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spans", default=None, help="write trace spans to this file")
    args = parser.parse_args(argv)
    {"cold_lumped": cold_lumped, "warm_server": warm_server}[args.command](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
