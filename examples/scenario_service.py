"""Multiple async clients sharing ONE scenario service.

This example runs the paper's survivability scenarios the way a production
deployment would: a single :class:`repro.service.ScenarioService` owns the
analysis machinery, and several concurrent *clients* — here asyncio tasks,
in a real deployment request handlers — submit their own measure requests
and await their own results:

* each client submits a whole curve family (a registered scenario name or
  hand-built :class:`repro.analysis.MeasureRequest` objects) and gets back
  exactly its slice of the shared computation;
* the service's flush thread coalesces submissions across clients for a
  short window (or until the batch-size cap), so identical/compatible
  curves requested by different clients ride one uniformization sweep —
  N clients cost no more sweeps than one batched session;
* absorbing transforms, lumping quotients, uniformized operators and
  Fox–Glynn windows live in the service's bounded
  :class:`repro.service.ArtifactCache` keyed by chain fingerprints (here
  one the example hands over, to read its counters), so the second round
  below recomputes none of them (watch the cache-miss deltas in the
  output).

Run with::

    python examples/scenario_service.py [--clients N] [--rounds K] [--points N]
"""

import argparse
import asyncio

from repro.service import ArtifactCache, ScenarioService, paper_registry


async def client(service: ScenarioService, name: str, scenario: str, points: int):
    """One client: submit a scenario family, await it, report a headline."""
    pairs = await service.submit_scenario(scenario, points=points)
    # Every result is this client's own slice; tags identify the curves as
    # (..., interval_index, strategy_label).
    final_values = {
        (request.tag[-2], request.tag[-1]): float(result.squeezed[-1])
        for request, result in pairs
    }
    interval_index, strategy = max(final_values, key=final_values.get)
    return (
        f"  {name}: {scenario} -> {len(pairs)} curves, best at horizon: "
        f"{strategy} to X{interval_index + 1} "
        f"({final_values[(interval_index, strategy)]:.4f})"
    )


async def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--clients", type=int, default=3, help="concurrent clients")
    parser.add_argument("--rounds", type=int, default=2, help="portfolio rounds")
    parser.add_argument("--points", type=int, default=31, help="grid points")
    args = parser.parse_args()

    cache = ArtifactCache()
    service = ScenarioService(
        lump=True,                 # solve every group on its cached quotient
        coalesce_window=0.05,      # collect submissions for 50 ms ...
        max_batch=256,             # ... or until 256 requests are pending
        artifacts=cache,
        registry=paper_registry(),
    )
    async with service:
        for round_index in range(args.rounds):
            before = cache.stats()
            reports = await asyncio.gather(
                *(
                    client(service, f"client-{index}", scenario, args.points)
                    for index in range(args.clients)
                    for scenario in ("fig4_5", "fig8_9")
                )
            )
            print(f"round {round_index + 1}:")
            for report in reports:
                print(report)
            deltas = cache.stats().misses_since(before)
            print(f"  cache misses this round: {deltas}")
        print(f"[{service.stats.summary()}]")
        print(f"[{cache.stats().summary()}]")


if __name__ == "__main__":
    asyncio.run(main())
