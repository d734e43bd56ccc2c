"""Command-line front end for the water-treatment experiments.

Usage examples::

    python -m repro table1 table2        # reproduce the two tables
    python -m repro fig3 --points 51     # reliability curves as CSV + ASCII
    python -m repro fig4 fig5            # one family, expanded once
    python -m repro fig8 --no-lump       # solve on the full chains
    python -m repro all --fast           # everything, on coarse grids
    python -m repro all --output results # also write CSV files per experiment
    python -m repro serve --clients 4 --repeat 2   # scenario service sweep
    python -m repro serve --metrics      # plus a /metrics-style text dump
    python -m repro serve --http 8080    # HTTP front end (POST /scenario)
    python -m repro serve --http 8080 --shards 2 --max-pending 256 \
        --timeout 30                     # sharded, with backpressure
    python -m repro serve --http 8080 --shards 2 --restart-limit 5 \
        --retry-limit 3 --heartbeat-interval 0.5   # tuned supervision
    python -m repro optimize --line 1 --objective survivability
    python -m repro optimize --line 2 --objective availability --crews 1

``serve --http`` drains gracefully on SIGTERM/SIGINT: the listener closes,
in-flight requests finish through the service's ``close(drain=True)`` path,
and new requests are answered ``503`` until the process exits.

``optimize`` treats repair assignment as a CTMDP (see ``repro.optimize``):
policy iteration for long-run objectives, coalesced rollout for
finite-horizon ones, with the paper's fixed strategies as baselines.

Every experiment name matches the table/figure numbering of the paper.
Table 2 and Figs. 3-11 are the families of
:func:`repro.service.paper_registry`: one invocation expands every family
its names need, each once, into **one** analysis session, so paired
figures (fig4/fig5, fig8/fig9) share their family and every curve shares
sweeps, lumping quotients and factorizations with the rest.  Each curve
keeps its family's grid unless ``--points N`` puts every curve on N points.
The session solves every group on its ordinary-lumpability quotient;
``--no-lump`` solves on the full chains.  The session's work counters
(groups, sweeps, matvecs, lumping compression) are printed at the end.

``serve`` sweeps whole scenario portfolios through the asyncio scenario
service (:mod:`repro.service`): ``--clients N`` concurrent clients each
submit every selected scenario, the dispatcher coalesces their requests
into shared sweeps, and ``--repeat K`` repeats the portfolio to show the
service's artifact cache eliminating quotient/table recomputation on warm
runs.  Coalescing and cache statistics are printed per round.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
from collections.abc import Iterable
from pathlib import Path

from repro.analysis import AnalysisSession, SessionStats
from repro.casestudy import experiments as exp
from repro.service.dispatcher import DEFAULT_COALESCE_WINDOW
from repro.service.registry import MAX_GRID_POINTS, paper_registry

#: Every experiment name, in the paper's order.
EXPERIMENTS = ("table1", *exp.PAPER_EXPERIMENTS)


def run_experiments(
    names: Iterable[str],
    *,
    points: int | None = None,
    lump: bool = True,
    stats: SessionStats | None = None,
) -> dict[str, exp.TableResult | exp.CurveResult]:
    """Reproduce the named tables and figures, keyed by name.

    The registry families the names need are expanded once each, in
    registry order, into one :class:`AnalysisSession` with ``lump``;
    ``points`` puts every curve on that many grid points instead of its
    family's own grid.
    """
    names = list(dict.fromkeys(names))
    registry = paper_registry()
    families = {exp.PAPER_EXPERIMENTS[name][0] for name in names if name != "table1"}
    session = AnalysisSession(lump=lump, stats=stats)
    for family in registry.names:
        if family in families:
            session.extend(registry.expand(family, points=points))
    results = {}
    if len(session):
        results = {result.request.tag: result for result in session.execute()}
    return {
        name: exp.table1_state_space()
        if name == "table1"
        else exp.render_experiment(
            name, registry.get(exp.PAPER_EXPERIMENTS[name][0]), results
        )
        for name in names
    }


def grid_points(text: str) -> int:
    """argparse ``type=`` of every ``--points`` flag: a curve needs two points,
    and a grid holds at most :data:`~repro.service.registry.MAX_GRID_POINTS`."""
    points = int(text)
    if points < 2:
        raise argparse.ArgumentTypeError(
            f"must be at least 2 (t = 0 and the horizon), got {points}"
        )
    if points > MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_GRID_POINTS}, got {points}")
    return points


def bounded(convert: type, minimum: float, *, inclusive: bool = True):
    """argparse ``type=`` for a number of at least (or above) ``minimum``."""
    relation = "at least" if inclusive else "greater than"

    def parse(text: str):
        value = convert(text)
        if not (value >= minimum if inclusive else value > minimum):
            raise argparse.ArgumentTypeError(f"must be {relation} {minimum}, got {text}")
        return value

    parse.__name__ = convert.__name__
    return parse


def port(text: str) -> int:
    """argparse ``type=`` of ``serve --http``: a TCP port number."""
    value = int(text)
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(f"must be a port from 0 to 65535, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-watertreatment",
        description=(
            "Reproduce the tables and figures of 'Evaluating Repair Strategies for a "
            "Water-Treatment Facility using Arcade' (DSN 2010)."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        choices=[*EXPERIMENTS, "all"],
        help="which tables/figures to reproduce ('all' runs every experiment)",
    )
    parser.add_argument(
        "--points",
        type=grid_points,
        default=None,
        help=(
            "number of grid points for every figure curve (default: each "
            "figure's registry grid, or 21 points with --fast)"
        ),
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="coarse grids (same as --points 21)",
    )
    parser.add_argument(
        "--lump",
        action=argparse.BooleanOptionalAction,
        default=True,
        help=(
            "solve every analysis group on its ordinary-lumpability quotient, "
            "which preserves all requested measures (default: on; --no-lump "
            "solves on the full chains)"
        ),
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="directory to write one CSV file per experiment into",
    )
    parser.add_argument(
        "--no-plot",
        action="store_true",
        help="suppress the ASCII plots (print CSV only)",
    )
    return parser


def _render(name: str, result, args: argparse.Namespace) -> str:
    parts = []
    if hasattr(result, "to_text") and not args.no_plot:
        parts.append(result.to_text())
    if hasattr(result, "to_csv") and (args.no_plot or args.output is None):
        if args.no_plot:
            parts.append(result.to_csv())
    if args.output is not None and hasattr(result, "to_csv"):
        args.output.mkdir(parents=True, exist_ok=True)
        path = args.output / f"{name}.csv"
        path.write_text(result.to_csv() + "\n", encoding="utf-8")
        parts.append(f"[wrote {path}]")
    return "\n".join(parts)


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-watertreatment serve",
        description=(
            "Sweep scenario portfolios through the asyncio scenario service: "
            "N concurrent clients submit every selected scenario, the "
            "dispatcher coalesces compatible requests across clients into "
            "shared uniformization sweeps, and repeats hit the service's "
            "artifact cache (transforms, quotients, operators, Fox-Glynn "
            "tables)."
        ),
    )
    parser.add_argument(
        "--scenarios",
        nargs="+",
        default=None,
        metavar="NAME",
        help="registered scenario names (default: the whole paper portfolio)",
    )
    parser.add_argument(
        "--clients",
        type=bounded(int, 1),
        default=4,
        help="number of concurrent clients submitting the portfolio (default: 4)",
    )
    parser.add_argument(
        "--repeat",
        type=bounded(int, 1),
        default=2,
        help="portfolio rounds; warm rounds demonstrate the artifact cache (default: 2)",
    )
    parser.add_argument(
        "--points",
        type=grid_points,
        default=None,
        help="override every scenario's grid resolution",
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="coarse grids (same as --points 15)",
    )
    parser.add_argument(
        "--lump",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="solve groups on cached ordinary-lumpability quotients (default: on)",
    )
    parser.add_argument(
        "--window",
        type=bounded(float, 0),
        default=DEFAULT_COALESCE_WINDOW,
        help=(
            "coalescing window in seconds (default: %(default)s, group commit: "
            "flush on arrival, and what arrives during a flush forms the next one)"
        ),
    )
    parser.add_argument(
        "--max-batch",
        type=bounded(int, 1),
        default=1024,
        help="pending-request cap that cuts the window short (default: 1024)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help=(
            "print a /metrics-style text dump (service counters, per-flush "
            "latency histogram, per-kind cache hits/misses) after the sweep"
        ),
    )
    parser.add_argument(
        "--http",
        type=port,
        default=None,
        metavar="PORT",
        help=(
            "serve POST /scenario, GET /registry and GET /metrics over HTTP on "
            "PORT instead of running a local sweep (0 picks an ephemeral port)"
        ),
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address for --http (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--shards",
        type=bounded(int, 0),
        default=0,
        metavar="N",
        help=(
            "with --http: partition scenario portfolios across N worker "
            "processes routed by chain fingerprint (default: 0 = in-process)"
        ),
    )
    parser.add_argument(
        "--max-pending",
        type=bounded(int, 1),
        default=None,
        metavar="N",
        help=(
            "bounded-queue backpressure: reject submissions beyond N pending "
            "(HTTP maps the rejection to 503; default: unbounded)"
        ),
    )
    parser.add_argument(
        "--timeout",
        type=bounded(float, 0, inclusive=False),
        default=None,
        metavar="SECONDS",
        help=(
            "per-request deadline; an expired request fails alone with a "
            "timeout (HTTP: 504; default: none)"
        ),
    )
    parser.add_argument(
        "--max-connections",
        type=bounded(int, 1),
        default=None,
        metavar="N",
        help=(
            "with --http: cap concurrent client connections at N; excess "
            "connections get an immediate 503 + Retry-After (default: unbounded)"
        ),
    )
    parser.add_argument(
        "--heartbeat-interval",
        type=bounded(float, 0),
        default=1.0,
        metavar="SECONDS",
        help=(
            "with --shards: ping each worker this often; a worker silent for "
            "max(5 intervals, 30s) is deemed wedged, killed and restarted "
            "(0 disables wedge detection; default: 1.0)"
        ),
    )
    parser.add_argument(
        "--restart-limit",
        type=bounded(int, 0),
        default=3,
        metavar="K",
        help=(
            "with --shards: respawn a crashed worker up to K times per "
            "60s sliding window, then circuit-break the shard "
            "(0 = fail-fast, no restarts; default: 3)"
        ),
    )
    parser.add_argument(
        "--retry-limit",
        type=bounded(int, 0),
        default=2,
        metavar="K",
        help=(
            "with --shards: transparently resubmit a request across up to K "
            "worker deaths before failing its caller (default: 2)"
        ),
    )
    parser.add_argument(
        "--shutdown-grace",
        type=bounded(float, 0, inclusive=False),
        default=10.0,
        metavar="SECONDS",
        help=(
            "with --shards: wait this long per worker at shutdown before "
            "terminating it (default: 10)"
        ),
    )
    parser.add_argument(
        "--snapshot-timeout",
        type=bounded(float, 0, inclusive=False),
        default=30.0,
        metavar="SECONDS",
        help=(
            "with --shards: deadline for one worker's stats snapshot when "
            "serving GET /metrics (default: 30)"
        ),
    )
    return parser


def serve_http_main(args: argparse.Namespace) -> int:
    """Run the HTTP front end (``python -m repro serve --http PORT``)."""
    from repro.service import (
        ScenarioHTTPServer,
        ScenarioService,
        ShardedScenarioService,
        paper_registry,
    )

    async def run() -> None:
        if args.shards > 0:
            service = ShardedScenarioService(
                args.shards,
                lump=args.lump,
                coalesce_window=args.window,
                max_batch=args.max_batch,
                max_pending=args.max_pending,
                default_timeout=args.timeout,
                registry=paper_registry(),
                heartbeat_interval=args.heartbeat_interval,
                restart_limit=args.restart_limit,
                retry_limit=args.retry_limit,
                shutdown_grace=args.shutdown_grace,
                snapshot_timeout=args.snapshot_timeout,
            )
        else:
            service = ScenarioService(
                lump=args.lump,
                coalesce_window=args.window,
                max_batch=args.max_batch,
                max_pending=args.max_pending,
                default_timeout=args.timeout,
                registry=paper_registry(),
            )
        async with service:
            server = ScenarioHTTPServer(
                service,
                host=args.host,
                port=args.http,
                max_connections=args.max_connections,
            )
            await server.start()
            host, port = server.address
            backend = (
                f"{args.shards} shard processes" if args.shards > 0 else "in-process"
            )
            print(f"serving on http://{host}:{port} ({backend})")
            print("  POST /scenario   e.g. curl -d '{\"name\": \"fig4_5\"}' "
                  f"http://{host}:{port}/scenario")
            print(f"  GET  /registry   GET  /metrics")
            # Graceful drain: SIGTERM/SIGINT stop the accept loop, in-flight
            # requests finish (new ones get 503), then the ``async with``
            # exit runs the service's close(drain=True) path.
            stop = asyncio.Event()
            loop = asyncio.get_running_loop()
            registered: list[int] = []
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(signum, stop.set)
                    registered.append(signum)
                except (NotImplementedError, RuntimeError, ValueError):
                    pass  # platform/loop without signal-handler support
            try:
                if registered:
                    await stop.wait()
                    print(
                        "signal received; draining (in-flight requests finish, "
                        "new requests get 503)"
                    )
                    await server.drain()
                else:  # fall back to KeyboardInterrupt via asyncio.run
                    await server.serve_forever()
            except asyncio.CancelledError:
                pass
            finally:
                for signum in registered:
                    loop.remove_signal_handler(signum)
                await server.close()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("interrupted; shutting down")
    return 0


def serve_main(argv: list[str] | None = None) -> int:
    """Entry point of ``python -m repro serve``."""
    from repro.service import ScenarioService, paper_registry

    args = build_serve_parser().parse_args(argv)
    if args.http is not None:
        return serve_http_main(args)
    registry = paper_registry()
    names = args.scenarios if args.scenarios else list(registry.names)
    for name in names:
        if name not in registry:
            print(
                f"unknown scenario {name!r}; known: {', '.join(registry.names)}",
                file=sys.stderr,
            )
            return 2
    points = args.points if args.points is not None else (15 if args.fast else None)

    async def run() -> None:
        service = ScenarioService(
            lump=args.lump,
            coalesce_window=args.window,
            max_batch=args.max_batch,
            max_pending=args.max_pending,
            default_timeout=args.timeout,
            registry=registry,
        )
        async with service:
            # State-space construction (seconds on a cold process) must not
            # block the event loop, so the portfolio is expanded once on a
            # worker thread; every client then submits the same requests —
            # which is also what lets the dispatcher coalesce them.
            portfolio = await asyncio.get_running_loop().run_in_executor(
                None,
                lambda: [
                    request
                    for name in names
                    for request in registry.expand(name, points=points)
                ],
            )
            for round_index in range(args.repeat):
                cache_before = service.cache_stats()
                sweeps_before = service.stats.session.sweeps

                async def client() -> int:
                    results = await service.submit_many(list(portfolio))
                    return len(results)

                curve_counts = await asyncio.gather(
                    *(client() for _ in range(args.clients))
                )
                miss_deltas = service.cache_stats().misses_since(cache_before)
                recomputed = ", ".join(
                    f"{kind}+{count}" for kind, count in sorted(miss_deltas.items())
                )
                print(
                    f"[round {round_index + 1}] {sum(curve_counts)} curves for "
                    f"{len(curve_counts)} clients, "
                    f"sweeps +{service.stats.session.sweeps - sweeps_before}, "
                    f"cache misses: {recomputed or 'none'}"
                )
            print(f"[{service.stats.summary()}]")
            print(f"[{service.cache_stats().summary()}]")
            if args.metrics:
                print()
                print(service.stats.metrics())
                print(service.cache_stats().metrics())

    asyncio.run(run())
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro`` and the ``repro-watertreatment`` script."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "optimize":
        from repro.optimize.cli import optimize_main

        return optimize_main(argv[1:])
    args = build_parser().parse_args(argv)
    names = EXPERIMENTS if "all" in args.experiments else args.experiments
    points = args.points if args.points is not None else (21 if args.fast else None)
    stats = SessionStats()
    results = run_experiments(names, points=points, lump=args.lump, stats=stats)
    for name, result in results.items():
        print(_render(name, result, args))
        print()
    if stats.requests:
        print(f"[{stats.summary()}]")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
