"""Benchmark driver: one workload, one seed, one run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cold_lumped --seed 1 --seconds 25 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

``cold_lumped``  cold ``AnalysisSession(lump=True)`` over the 42 requests of
                 every ``paper_registry()`` family, state spaces pre-built
                 by the set-up.
``warm_http``    closed loop of 2 keep-alive connections cycling
                 ``POST /scenario`` over the 8 families against a 2-shard
                 service.

With ``--trace 0`` the run reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics (from wrappers installed in a traced
workload process, next to an untraced one for the overhead).  Human-readable
lines come first; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The full record,
including the environment, is also written under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import platform
import queue
import random
import signal
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

from common import (
    REFERENCE_DIR,
    child_env,
    curve_matches,
    load_curves,
    median,
    normalised_units,
    nproc,
    percentile_with_tail,
    probe_s,
    src_loc,
    tag_key,
)

perf_counter = time.perf_counter
BENCH_DIR = Path(__file__).resolve().parent
CHILD = str(BENCH_DIR / "child.py")

#: Client connections of the ``warm_http`` closed loop.
CONNECTIONS = 2
#: Longest a single child may take before the run is abandoned.
CHILD_TIMEOUT = 150.0
#: Whole-run limit: past it the run stops its processes and fails.
RUN_DEADLINE = 160

#: Shard-side artifact-cache kinds reported one by one.
CACHE_KINDS = (
    "transformed", "quotient", "operator", "foxglynn", "dense_operator", "engine",
    "factorization", "bscc", "stationary", "embedded", "absorption",
)


class BenchmarkError(RuntimeError):
    """A run that cannot produce a result (no result line is printed)."""


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------
class Child:
    """One workload process: JSON events on stdout, waited for on exit.

    The child leads its own process group, so that anything it spawns
    (shard workers) can be signalled together if it does not stop cleanly.
    """

    live: list["Child"] = []

    def __init__(self, argv: list[str], root: Path, env: dict, stdin: bool = False):
        self.started = perf_counter()
        self.process = subprocess.Popen(
            argv,
            cwd=root,
            env=env,
            stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        self.rusage = None
        self.lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        Child.live.append(self)

    def _read(self) -> None:
        for line in self.process.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def output(self, timeout: float = CHILD_TIMEOUT) -> str:
        """Everything the child prints until it closes standard output."""
        parts: list[str] = []
        deadline = time.monotonic() + timeout
        while True:
            try:
                line = self.lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise BenchmarkError(f"{self.describe()} timed out") from None
            if line is None:
                return "".join(parts)
            parts.append(line)

    def event(self, name: str, timeout: float = CHILD_TIMEOUT) -> dict:
        """Wait for the JSON event ``name``; fail if the child exits first."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                line = self.lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise BenchmarkError(f"{self.describe()} timed out waiting for {name}") from None
            if line is None:
                raise BenchmarkError(f"{self.describe()} exited before {name}")
            try:
                message = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(message, dict) and message.get("event") == name:
                return message

    def send(self, command: str) -> None:
        self.process.stdin.write(command + "\n")
        self.process.stdin.flush()

    def wait(self, timeout: float = CHILD_TIMEOUT) -> float:
        """Reap the child (keeping its resource usage); returns its wall time."""
        deadline = time.monotonic() + timeout
        while True:
            pid, status, rusage = os.wait4(self.process.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.kill()
                raise BenchmarkError(f"{self.describe()} did not exit")
            time.sleep(0.005)
        elapsed = perf_counter() - self.started
        self.process.returncode = os.waitstatus_to_exitcode(status)
        self.rusage = rusage
        self._reader.join(timeout=5)
        self._close()
        if self.process.returncode != 0:
            raise BenchmarkError(f"{self.describe()} exited with {self.process.returncode}")
        return elapsed

    @property
    def peak_rss_mb(self) -> float:
        return self.rusage.ru_maxrss / 1024.0

    def kill(self) -> None:
        """Stop the child's whole process group and reap the child."""
        for sig in (signal.SIGINT, signal.SIGKILL):
            try:
                os.killpg(self.process.pid, sig)
            except ProcessLookupError:
                break
            try:
                self.process.wait(timeout=5)
                break
            except subprocess.TimeoutExpired:
                continue
        try:  # shard workers of a killed front
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self._close()

    def _close(self) -> None:
        for stream in (self.process.stdin, self.process.stdout):
            if stream is not None:
                try:
                    stream.close()
                except OSError:
                    pass
        if self in Child.live:
            Child.live.remove(self)

    def describe(self) -> str:
        return " ".join(self.process.args[-4:]) if isinstance(self.process.args, list) else "child"


def run_child(argv: list[str], root: Path, env: dict) -> tuple[str, float, "Child"]:
    child = Child(argv, root, env)
    text = child.output()
    elapsed = child.wait()
    return text, elapsed, child


def spans_path(root: Path, args, label: str) -> str:
    return str(root / ".perfbench" / "spans" / f"{args.workload}-seed{args.seed}-{label}.jsonl")


# ----------------------------------------------------------------------
# per-layer metrics from a trace summary
# ----------------------------------------------------------------------
def layer_metrics(trace: dict, units: float) -> dict[str, float]:
    """Per-layer values of one traced process, per unit of work."""
    layers = trace["layers"]
    counters = trace["counters"]

    def inclusive(name):
        return layers.get(name, [0, 0.0, 0.0])[1] / units

    def self_time(name):
        return layers.get(name, [0, 0.0, 0.0])[2] / units

    def calls(name):
        return layers.get(name, [0, 0.0, 0.0])[0] / units

    def counter(name):
        return counters.get(name, 0) / units

    return {
        "arcade.statespace.build_s": inclusive("arcade.statespace.build"),
        "arcade.statespace.calls": calls("arcade.statespace.build"),
        "arcade.statespace.states": counter("arcade.statespace.states"),
        "arcade.statespace.transitions": counter("arcade.statespace.transitions"),
        "arcade.statespace.label_s": inclusive("arcade.statespace.label"),
        "arcade.statespace.rate_s": inclusive("arcade.statespace.rate"),
        "ctmc.ctmc.build_s": inclusive("ctmc.ctmc.build"),
        "ctmc.lumping.partition_s": inclusive("ctmc.lumping.partition"),
        "ctmc.lumping.partition_calls": calls("ctmc.lumping.partition"),
        "ctmc.lumping.quotient_s": inclusive("ctmc.lumping.quotient"),
        "ctmc.lumping.states_in": counter("ctmc.lumping.states_in"),
        "ctmc.lumping.blocks_out": counter("ctmc.lumping.blocks_out"),
        "ctmc.steady_state.bscc_s": inclusive("ctmc.steady_state.bscc"),
        "ctmc.steady_state.bscc_calls": calls("ctmc.steady_state.bscc"),
        "ctmc.steady_state.solve_s": self_time("ctmc.steady_state.solve"),
        "ctmc.linsolve.factorizations": counter("ctmc.linsolve.factorizations"),
        "ctmc.linsolve.factor_s": counter("ctmc.linsolve.factor_s"),
        "ctmc.linsolve.solve_s": counter("ctmc.linsolve.solve_s"),
        "ctmc.uniformization.sweep_s": inclusive("ctmc.uniformization.sweep"),
        "ctmc.uniformization.sweeps": counter("ctmc.uniformization.sweeps"),
        "ctmc.uniformization.matvecs": counter("ctmc.uniformization.matvecs"),
        "ctmc.uniformization.equivalent_nnz": counter("ctmc.uniformization.equivalent_nnz"),
        "analysis.planner.plan_s": self_time("analysis.planner.plan"),
        "analysis.planner.groups": counter("analysis.planner.groups"),
        "analysis.executor.execute_s": self_time("analysis.executor.execute"),
        "service.registry.expand_s": self_time("service.registry.expand"),
        "service.shard.pickle_s": inclusive("service.shard.pickle"),
        "service.shard.submit_s": inclusive("service.shard.submit")
        - inclusive("service.shard.pickle"),
    }


def load_metric_units(root: Path) -> tuple[dict[str, str], dict[str, str]]:
    """``(end_to_end, per_layer)`` metric name -> unit, from ``BENCHMARK.json``."""
    with (root / "BENCHMARK.json").open(encoding="utf-8") as handle:
        spec = json.load(handle)
    return tuple(
        {metric["name"]: metric["unit"] for metric in spec[key]}
        for key in ("end_to_end", "per_layer")
    )


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def cold_lumped(root: Path, env: dict, args) -> dict:
    record: dict = {"attempted": 0, "failed": 0}

    def process(trace: int, seconds: float, label: str) -> tuple[float, dict]:
        argv = [sys.executable, CHILD, "cold_lumped", "--seconds", str(seconds),
                "--trace", str(trace)]
        if trace:
            argv += ["--spans", spans_path(root, args, label)]
        child = Child(argv, root, env)
        ready = child.event("ready")
        setup = perf_counter() - child.started
        done = child.event("done")
        done["setup_trace"] = ready["trace"]
        child.output()
        child.wait()
        record["attempted"] += done["attempted"]
        record["failed"] += done["failed"]
        return setup, done

    if not args.trace:
        # Host-speed probes: one here before the set-up, then the child's
        # own, after the set-up and after each session.
        probe = probe_s()
        setup, done = process(0, args.seconds, "run")
        probes = [probe, *done["probes_s"]]
        units = normalised_units([setup, *done["sessions_s"]], probes)
        record.update(
            samples={"setup_s": [setup], "wall_s": done["sessions_s"], "probe_s": probes,
                     "normalised_s": units},
            metrics={
                "wall_s": median(units[1:]),
                "setup_s": units[0],
                "peak_rss_mb": done["peak_rss_mb"],
            },
        )
        return record

    _, untraced = process(0, args.seconds / 2, "untraced")
    _, traced = process(1, args.seconds / 2, "traced")
    trace = traced["trace"]
    metrics = layer_metrics(trace, len(traced["sessions_s"]))
    # The sessions build no state space; the set-up builds all 12 of them.
    setup_metrics = layer_metrics(traced["setup_trace"], 1.0)
    metrics.update(
        (name, value) for name, value in setup_metrics.items()
        if name.startswith("arcade.statespace.")
    )
    metrics["trace.coverage"] = trace["root_seconds"] / sum(traced["sessions_s"])
    metrics["trace.overhead_s"] = median(traced["sessions_s"]) - median(untraced["sessions_s"])
    record["metrics"] = metrics
    return record


class ClosedLoopClient:
    """One keep-alive connection posting ``POST /scenario`` for the families.

    Every pass visits each family once, in a fresh order drawn from the
    connection's seeded generator, so that which requests of the two
    connections overlap varies within a run rather than between seeds.
    """

    def __init__(self, port: int, families: list[str], rng: random.Random) -> None:
        self.connection = http.client.HTTPConnection("127.0.0.1", port, timeout=CHILD_TIMEOUT)
        self.families = families
        self.rng = rng
        #: (family, start, end, status, body)
        self.samples: list[tuple] = []
        #: Duration of each complete pass.
        self.passes: list[float] = []
        self.error: BaseException | None = None

    def post(self, family: str) -> tuple:
        payload = json.dumps({"name": family})
        start = perf_counter()
        self.connection.request(
            "POST", "/scenario", body=payload, headers={"Content-Type": "application/json"}
        )
        response = self.connection.getresponse()
        body = response.read()
        return family, start, perf_counter(), response.status, body

    def run_pass(self) -> None:
        """One pass over all families, in a fresh seeded order."""
        try:
            start = perf_counter()
            for family in self.rng.sample(self.families, len(self.families)):
                self.samples.append(self.post(family))
            self.passes.append(perf_counter() - start)
        except Exception as error:  # reported by the driver thread
            self.error = error

    def close(self) -> None:
        self.connection.close()


def check_responses(samples: list[tuple], reference: dict) -> int:
    """Failed requests: non-200 replies and curves that disagree with the reference."""
    verdicts: dict[bytes, bool] = {}
    failed = 0
    for _family, _start, _end, status, body in samples:
        if status != 200:
            failed += 1
            continue
        if body not in verdicts:
            curves = json.loads(body)["curves"]
            verdicts[body] = all(
                tag_key(curve["tag"]) in reference
                and curve_matches(reference[tag_key(curve["tag"])], curve["values"])
                for curve in curves
            )
        failed += not verdicts[body]
    return failed


def warm_server_run(root: Path, env: dict, args, trace: int, seconds: float, label: str):
    """Start the front, warm it, run the closed loop, collect the report."""
    argv = [sys.executable, CHILD, "warm_server", "--trace", str(trace)]
    if trace:
        argv += ["--spans", spans_path(root, args, label)]
    reference = load_curves()
    families = sorted({json.loads(key)[0] for key in reference})
    child = Child(argv, root, env, stdin=True)
    clients: list[ClosedLoopClient] = []
    try:
        port = child.event("listening")["port"]
        warmup = ClosedLoopClient(port, families, random.Random(0))
        for family in families:
            sample = warmup.post(family)
            if sample[3] != 200:
                raise BenchmarkError(f"warm-up request for {family} returned {sample[3]}")
        warmup.close()
        setup = perf_counter() - child.started
        child.send("mark")
        child.event("marked")
        clients = [
            ClosedLoopClient(port, families, random.Random(args.seed * CONNECTIONS + index))
            for index in range(CONNECTIONS)
        ]
        # Rounds: every connection makes one pass, and the next round starts
        # when both are done.  Passes that start together overlap alike;
        # in a free-running loop the median pass spread 8-13% between runs,
        # in rounds 3%.
        passes = []
        elapsed = 0.0
        deadline = perf_counter() + seconds
        while not passes or perf_counter() < deadline:
            threads = [
                threading.Thread(target=client.run_pass, daemon=True) for client in clients
            ]
            started = perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed += perf_counter() - started
            for client in clients:
                if client.error is not None:
                    raise BenchmarkError(f"client failed: {client.error!r}")
            passes.extend(client.passes[-1] for client in clients)
        child.send("report")
        report = child.event("report")
        for client in clients:
            client.close()
        child.send("stop")
        child.event("stopped")
        child.output()
        child.wait()
    finally:
        for client in clients:
            client.close()
    samples = [sample for client in clients for sample in client.samples]
    return {
        "setup": setup,
        "elapsed": elapsed,
        "samples": samples,
        "passes": passes,
        "failed": check_responses(samples, reference),
        "report": report,
        "families": families,
    }


def http_metrics(run: dict) -> dict[str, float]:
    """Client-side and shard-side metrics of one warm closed loop."""
    samples = run["samples"]
    ok = [sample for sample in samples if sample[3] == 200]
    latencies = [(end - start) * 1000.0 for _f, start, end, _s, _b in ok]
    passes = len(samples) / len(run["families"])
    per_family_bytes: dict[str, list[int]] = {}
    for family, _start, _end, _status, body in ok:
        per_family_bytes.setdefault(family, []).append(len(body))
    shards = run["report"]["shards"]
    tail = percentile_with_tail(latencies)
    metrics = {
        "service.http.p50_ms": median(latencies) if latencies else 0.0,
        # The highest percentile with at least 10 samples beyond it (a
        # 25-second loop has under 200 samples, too few for p95).
        "service.http.tail_pct": tail[0] if tail else 0.0,
        "service.http.tail_ms": tail[1] if tail else 0.0,
        "service.http.rps": len(ok) / run["elapsed"],
        "service.http.samples": float(len(samples)),
        # One pass = one request per family; the body of a family is
        # deterministic, so this repeats exactly between runs.
        "service.http.response_bytes": float(
            sum(median(sizes) for sizes in per_family_bytes.values())
        ),
        "service.dispatcher.flushes": shards.get("flushes", 0) / passes,
        "service.dispatcher.coalesced_per_flush": (
            shards.get("requests", 0) / shards["flushes"] if shards.get("flushes") else 0.0
        ),
        "service.cache.hits": sum(
            value for key, value in shards.items() if key.startswith("cache.hits.")
        ) / passes,
        "service.cache.misses": sum(
            value for key, value in shards.items() if key.startswith("cache.misses.")
        ) / passes,
        "shard.analysis.session.sweeps": shards.get("sweeps", 0) / passes,
        "shard.analysis.session.sweep_s": shards.get("sweep_s", 0.0) / passes,
        "shard.analysis.session.factor_s": shards.get("factor_s", 0.0) / passes,
    }
    for kind in CACHE_KINDS:
        metrics[f"service.cache.hits.{kind}"] = shards.get(f"cache.hits.{kind}", 0) / passes
        metrics[f"service.cache.misses.{kind}"] = shards.get(f"cache.misses.{kind}", 0) / passes
    return metrics


def warm_http(root: Path, env: dict, args) -> dict:
    record: dict = {"attempted": 0, "failed": 0}

    def account(run: dict) -> None:
        record["attempted"] += len(run["samples"])
        record["failed"] += run["failed"]
        misses = {
            key.removeprefix("cache.misses."): value
            for key, value in run["report"]["shards"].items()
            if key.startswith("cache.misses.") and value
        }
        record.setdefault("warm_cache_misses", []).append(misses)

    if not args.trace:
        run = warm_server_run(root, env, args, 0, args.seconds, "run")
        account(run)
        record["http"] = http_metrics(run)
        record.update(
            samples={"setup_s": [run["setup"]], "wall_s": run["passes"]},
            metrics={
                "wall_s": median(run["passes"]),
                "setup_s": run["setup"],
                "peak_rss_mb": run["report"]["peak_rss_mb"],
            },
        )
        return record

    share = args.seconds / 2
    untraced = warm_server_run(root, env, args, 0, share, "untraced")
    traced = warm_server_run(root, env, args, 1, share, "traced")
    account(untraced)
    account(traced)
    trace = traced["report"]["trace"]
    passes = len(traced["samples"]) / len(traced["families"])
    metrics = layer_metrics(trace, passes)
    # Request bytes per pass: what one POST of each family pickles.
    counters = trace["counters"]
    posts = {family: 0 for family in traced["families"]}
    for family, *_rest in traced["samples"]:
        posts[family] += 1
    metrics["service.shard.request_bytes"] = float(sum(
        counters.get(f"service.shard.request_bytes.{family}", 0) / count
        for family, count in posts.items()
        if count
    ))
    metrics.update(http_metrics(traced))
    latency_s = sum(end - start for _f, start, end, _s, _b in traced["samples"])
    scenario_s = trace["layers"].get("service.shard.submit_scenario", [0, 0.0, 0.0])[1]
    metrics["service.http.overhead_ms"] = (latency_s - scenario_s) * 1000.0 / len(traced["samples"])
    metrics["trace.coverage"] = scenario_s / latency_s
    metrics["trace.overhead_s"] = median(traced["passes"]) - median(untraced["passes"])
    record["metrics"] = metrics
    return record


WORKLOADS = {"cold_lumped": cold_lumped, "warm_http": warm_http}


# ----------------------------------------------------------------------
def environment(root: Path, env: dict) -> dict:
    def version(name: str) -> str | None:
        try:
            return metadata.version(name)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": nproc(),
        "src_loc": src_loc(root),
        "pythonhashseed": env["PYTHONHASHSEED"],
        "blas_threads": {name: env[name] for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    missing = [
        path for path in (root / "src" / "repro" / "__init__.py", REFERENCE_DIR / "curves.json")
        if not path.is_file()
    ]
    if missing:
        print(f"error: not a checkout of the project (missing {missing[0]})", file=sys.stderr)
        return 2
    env = child_env(root)
    info = environment(root, env)
    end_to_end, per_layer = load_metric_units(root)

    def expire(_signum, _frame):
        raise BenchmarkError(f"run exceeded {RUN_DEADLINE} s")

    signal.signal(signal.SIGALRM, expire)
    signal.alarm(RUN_DEADLINE)
    try:
        record = WORKLOADS[args.workload](root, env, args)
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        for child in list(Child.live):
            child.kill()

    units = per_layer if args.trace else end_to_end
    metrics = record["metrics"]
    if args.trace:
        metrics["src.loc"] = float(info["src_loc"])
        unknown = sorted(set(metrics) - set(per_layer))
        if unknown:
            print(f"error: metrics missing from BENCHMARK.json: {unknown}", file=sys.stderr)
            return 1
        # A layer the workload never reaches reads 0.
        metrics = {name: metrics.get(name, 0.0) for name in per_layer}
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    full = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "environment": info, **record, "result": result}
    full.pop("metrics")
    results_dir = root / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=1, default=str), encoding="utf-8"
    )

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"failed_frac={record['failed'] / max(1, record['attempted']):.6g} "
          f"(failed {record['failed']} of {record['attempted']} attempted)")
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    for name, value in sorted(record.get("http", {}).items()):
        if name.startswith("service.http."):
            print(f"  {name} = {value:.6g} {per_layer[name]}")
    if "warm_cache_misses" in record:
        print(f"  warm-round shard cache misses by kind: {record['warm_cache_misses']}")
    print("environment " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
