"""Helpers shared by the benchmark driver and its child processes."""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import time
from pathlib import Path

#: The benchmark's own directory and the reference outputs inside it.
BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"

#: Agreement contract for curve values (the repository's own gates use it).
TOLERANCE = 1e-12

#: Environment variables of the BLAS thread pools.
BLAS_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
#: Threads per BLAS pool in every benchmark process (at most ``nproc``).
BLAS_THREADS = 1


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def child_env(root: Path) -> dict[str, str]:
    """Pinned environment of every process the benchmark starts.

    A fixed hash seed keeps set/dict iteration order -- and hence the
    program's work -- identical between runs.  BLAS pools get one thread:
    on the small dense operators of these chains a two-thread pool made the
    sweeps of one ``repro all`` run take either ~0.1 s or ~1 s, at random.
    """
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for variable in BLAS_ENV_VARS:
        env[variable] = str(BLAS_THREADS)
    return env


def peak_rss_mb() -> float:
    """Peak resident set size of the calling process, in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def src_loc(root: Path) -> int:
    """Lines of Python under ``src/``."""
    total = 0
    for path in sorted((root / "src").rglob("*.py")):
        with path.open("rb") as handle:
            total += sum(1 for _ in handle)
    return total


def median(values) -> float:
    return float(statistics.median(values))


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------
#: Median time of one :func:`_probe_work` on an idle host (2-vCPU Intel Xeon
#: VM, Python 3.11.7).  Normalised times are seconds at this host speed.
PROBE_REFERENCE_S = 0.066
#: Repetitions per probe; the probe reports their median.
PROBE_REPEATS = 3


def _probe_work() -> int:
    """Fixed interpreter work: tuple keys, dict updates and a sort.

    This is the kind of work that dominates the state-space build and the
    lumping refinement, so a busy neighbour on a shared host slows it by
    about as much as it slows the workloads.
    """
    table: dict = {}
    for index in range(60000):
        key = (index % 97, index % 89, index >> 3)
        table[key] = table.get(key, 0) + index
    return len(sorted(table.items()))


def probe_s() -> float:
    """Current host speed: the median time of a few runs of fixed work."""
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        _probe_work()
        times.append(time.perf_counter() - start)
    return float(statistics.median(times))


def normalised_units(units: list[float], probes: list[float]) -> list[float]:
    """Times of consecutive units of work, in seconds at reference host speed.

    ``probes[i]`` and ``probes[i + 1]`` are the probes taken just before and
    just after ``units[i]``, while no workload process was busy; each unit
    is scaled by the mean of its two.  A shared host switches between speed
    levels for tens of seconds at a time: back-to-back cold sessions took
    2.6 s or 4.2 s, in spells of several each, so the median of a run
    depended on how much of it fell in a slow spell.  On five minutes of
    cold sessions cut into 15 s runs, this scaling took the spread of the
    run medians (quartile distance over median) from 15% to 5%.
    """
    return [
        raw * PROBE_REFERENCE_S / ((probes[index] + probes[index + 1]) / 2.0)
        for index, raw in enumerate(units)
    ]


def percentile_with_tail(values, tail: int = 10) -> tuple[float, float] | None:
    """The highest percentile that still has ``tail`` samples beyond it.

    Returns ``(percent, value)`` or ``None`` when there are too few samples.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count <= tail:
        return None
    index = count - tail - 1
    return 100.0 * (index + 1) / count, ordered[index]


# ----------------------------------------------------------------------
# reference outputs
# ----------------------------------------------------------------------
def tag_key(tag) -> str:
    """Canonical string key of a request tag (tuples and JSON lists agree)."""
    return json.dumps(list(tag) if isinstance(tag, (list, tuple)) else [tag])


def load_curves() -> dict[str, list]:
    """Reference curve values of every ``paper_registry()`` request, by tag."""
    with (REFERENCE_DIR / "curves.json").open(encoding="utf-8") as handle:
        return json.load(handle)["curves"]


def curve_values(array) -> list:
    """Curve values as JSON carries them (non-finite entries as ``None``)."""
    import numpy as np

    return [
        value if np.isfinite(value) else None
        for value in np.asarray(array, dtype=float).ravel().tolist()
    ]


def curve_matches(reference: list, values) -> bool:
    """Values agree with the reference within :data:`TOLERANCE`.

    ``None`` (JSON's spelling of a non-finite value) must meet ``None``.
    """
    if len(reference) != len(values):
        return False
    for expected, actual in zip(reference, values):
        if expected is None or actual is None or not math.isfinite(actual):
            if not (expected is None and (actual is None or not math.isfinite(actual))):
                return False
        elif abs(float(actual) - expected) > TOLERANCE:
            return False
    return True
