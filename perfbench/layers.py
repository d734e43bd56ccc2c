"""Per-layer timing from outside the program.

The benchmark never edits ``src/``.  Instead, a traced run replaces the
layers' public functions *at their call sites* with timing wrappers before
the workload starts.  Several callers bind these functions with
``from ... import``, so the wrapper goes on the binding the caller actually
looks up (``repro.casestudy.experiments.build_state_space``,
``repro.analysis.planner.lumping_partition``, ...), not only on the
defining module.

Every wrapped call becomes a frame on a per-thread stack.  On exit the
frame's duration is added to its layer's inclusive time (unless an outer
frame of the same layer is already open on that thread, so nesting is not
counted twice) and its *self* time -- the duration minus the time of child
frames inside it -- is added to the layer's self time.  Frames of coarse
layers are also kept as spans ``(id, parent, layer, thread, start, end)``
in memory and written out at the end; per-state hot functions (labelling,
failure rates) are aggregated only, because storing millions of spans
would distort both time and memory.

Coroutine wrappers (the sharded front's ``submit``) cannot use a thread
stack -- many of them interleave on one event loop -- so they record
standalone spans with no parent.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

perf_counter = time.perf_counter


class Tracer:
    """Layer totals, counters and spans of one traced process."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far (e.g. at the end of set-up)."""
        with self._lock:
            #: layer -> [calls, inclusive seconds, self seconds]
            self.layers: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
            self.counters: dict[str, float] = defaultdict(float)
            self.spans: list[tuple] = []
            self.root_seconds = 0.0
            self._next_id = 1

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, layer: str, record: bool, function, args, kwargs):
        """Run ``function`` inside a frame of ``layer``."""
        stack = self._stack()
        nested = False
        for frame in stack:
            if frame[0] == layer:
                nested = True
                break
        # frame: [layer, child seconds, span id]
        frame = [layer, 0.0, 0]
        parent_span = 0
        if record:
            with self._lock:
                frame[2] = self._next_id
                self._next_id += 1
            parent_span = next((f[2] for f in reversed(stack) if f[2]), 0)
        stack.append(frame)
        start = perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
            with self._lock:
                totals = self.layers[layer]
                totals[0] += 1
                if not nested:
                    totals[1] += duration
                totals[2] += duration - frame[1]
                if not stack:
                    self.root_seconds += duration
                if record:
                    self.spans.append(
                        (frame[2], parent_span, layer,
                         threading.current_thread().name, start, end)
                    )

    def add_span(self, layer: str, start: float, end: float) -> None:
        """Record a standalone span (coroutines, which share one thread)."""
        with self._lock:
            totals = self.layers[layer]
            totals[0] += 1
            totals[1] += end - start
            totals[2] += end - start
            self.spans.append(
                (self._next_id, 0, layer, threading.current_thread().name, start, end)
            )
            self._next_id += 1

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Plain-data totals, for passing to the parent process as JSON."""
        with self._lock:
            return {
                "layers": {name: list(values) for name, values in self.layers.items()},
                "counters": dict(self.counters),
                "root_seconds": self.root_seconds,
                "spans": len(self.spans),
            }

    def write_spans(self, path: Path) -> None:
        """Write the recorded spans as JSON lines (one span per line)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock, path.open("w", encoding="utf-8") as handle:
            for span_id, parent, layer, thread, start, end in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "layer": layer,
                    "thread": thread, "start": start, "end": end,
                }) + "\n")


def wrap(tracer: Tracer, owner, attribute: str, layer: str, record: bool = True) -> None:
    """Replace ``owner.attribute`` with a timing wrapper of ``layer``."""
    original = getattr(owner, attribute)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        return tracer.call(layer, record, original, args, kwargs)

    setattr(owner, attribute, wrapper)


def wrap_coroutine(tracer: Tracer, owner, attribute: str, layer: str) -> None:
    """Replace an ``async def`` method with a span-recording wrapper."""
    original = getattr(owner, attribute)

    @functools.wraps(original)
    async def wrapper(*args, **kwargs):
        start = perf_counter()
        try:
            return await original(*args, **kwargs)
        finally:
            tracer.add_span(layer, start, perf_counter())

    setattr(owner, attribute, wrapper)


class _TimedPickle:
    """Stand-in for the ``pickle`` module as bound in the sharded front.

    ``dumps`` of a measure request is the front's request serialisation:
    it is timed, and its byte count is recorded per scenario family (the
    first element of the request's tag).
    """

    def __init__(self, tracer: Tracer, module, request_type) -> None:
        self._tracer = tracer
        self._module = module
        self._request_type = request_type

    def dumps(self, obj, *args, **kwargs):
        if not isinstance(obj, self._request_type):
            return self._module.dumps(obj, *args, **kwargs)
        data = self._tracer.call(
            "service.shard.pickle", False, self._module.dumps, (obj, *args), kwargs
        )
        tag = obj.tag
        family = tag[0] if isinstance(tag, tuple) and tag else str(tag)
        self._tracer.count(f"service.shard.request_bytes.{family}", len(data))
        return data

    def __getattr__(self, name):
        return getattr(self._module, name)


def install_computation_layers(tracer: Tracer) -> None:
    """Wrap the model-build, chain and analysis layers at their call sites."""
    import repro.analysis.executor as executor
    import repro.analysis.planner as planner
    import repro.analysis.session as session
    import repro.casestudy.experiments as experiments
    import repro.ctmc.steady_state as steady_state
    from repro.analysis.session import SessionStats
    from repro.arcade.fault_tree import ServiceTree
    from repro.arcade.model import ArcadeModel
    from repro.ctmc.ctmc import CTMCBuilder

    wrap(tracer, experiments, "build_state_space", "arcade.statespace.build")
    for method in ("is_down", "state_cost_rate"):
        wrap(tracer, ArcadeModel, method, "arcade.statespace.label", record=False)
    wrap(tracer, ServiceTree, "service_level", "arcade.statespace.label", record=False)
    wrap(tracer, ArcadeModel, "effective_failure_rate", "arcade.statespace.rate",
         record=False)
    wrap(tracer, CTMCBuilder, "build", "ctmc.ctmc.build")
    wrap(tracer, planner, "lumping_partition", "ctmc.lumping.partition")
    wrap(tracer, planner, "lump_ctmc", "ctmc.lumping.quotient")
    wrap(tracer, steady_state, "bottom_strongly_connected_components",
         "ctmc.steady_state.bscc")
    wrap(tracer, executor, "steady_state_distribution_block", "ctmc.steady_state.solve")
    wrap(tracer, executor, "evaluate_grid_block", "ctmc.uniformization.sweep")
    wrap(tracer, executor, "poisson_mixture_sweep", "ctmc.uniformization.sweep")
    wrap(tracer, session, "build_plan", "analysis.planner.plan")
    wrap(tracer, session, "execute_plan", "analysis.executor.execute")

    # Work counters the sessions already keep: mirror every absorbed
    # plan/engine/solver record into the tracer.
    absorb_plan = SessionStats.absorb_plan
    absorb_engine = SessionStats.absorb_engine
    absorb_linear = SessionStats.absorb_linear

    def plan_counts(stats, plan):
        absorb_plan(stats, plan)
        tracer.count("analysis.planner.groups", plan.num_groups)
        for group in plan.groups:
            if group.lumped is not None:
                tracer.count("ctmc.lumping.states_in", group.chain.num_states)
                tracer.count("ctmc.lumping.blocks_out", group.lumped.num_blocks)

    def engine_counts(stats, engine):
        absorb_engine(stats, engine)
        tracer.count("ctmc.uniformization.sweeps", engine.sweeps)
        tracer.count("ctmc.uniformization.matvecs", engine.matvecs)
        tracer.count("ctmc.uniformization.equivalent_nnz", engine.equivalent_nnz)

    def linear_counts(stats, linear):
        absorb_linear(stats, linear)
        tracer.count("ctmc.linsolve.factorizations", linear.factorizations)
        tracer.count("ctmc.linsolve.factor_s", linear.factor_seconds)
        tracer.count("ctmc.linsolve.solve_s", linear.solve_seconds)

    SessionStats.absorb_plan = plan_counts
    SessionStats.absorb_engine = engine_counts
    SessionStats.absorb_linear = linear_counts

    # State-space sizes: read off each built space.
    build = experiments.build_state_space

    def counted_build(*args, **kwargs):
        space = build(*args, **kwargs)
        tracer.count("arcade.statespace.states", space.num_states)
        tracer.count("arcade.statespace.transitions", space.num_transitions)
        return space

    experiments.build_state_space = counted_build


def install_front_layers(tracer: Tracer) -> None:
    """Wrap the sharded HTTP front's layers (the shards are not traced)."""
    import pickle

    import repro.service.shard as shard
    from repro.analysis import MeasureRequest
    from repro.service.registry import ScenarioRegistry

    install_computation_layers(tracer)
    wrap(tracer, ScenarioRegistry, "expand", "service.registry.expand")
    wrap_coroutine(tracer, shard.ShardedScenarioService, "submit", "service.shard.submit")
    wrap_coroutine(tracer, shard.ShardedScenarioService, "submit_scenario",
                   "service.shard.submit_scenario")
    shard.pickle = _TimedPickle(tracer, pickle, MeasureRequest)
