"""One function per table and figure of the paper's evaluation (Section 5).

Every function returns a small result object carrying the raw numbers plus
``to_text()`` / ``to_csv()`` renderings, so the same code serves the
command-line front end, the benchmark harness and EXPERIMENTS.md.

Each figure-family function submits its *whole* curve family — every repair
strategy, disaster and service level of the figure pair — as one
:class:`repro.analysis.AnalysisSession`, so compatible curves share
uniformization sweeps (one per distinct (chain, rate, grid) group) instead
of re-traversing the chain per curve.  The keyword-only ``lump``,
``batched`` and ``stats`` parameters thread the session configuration
through from the CLI: ``lump=True`` solves each group on its ordinary-
lumpability quotient, ``batched=False`` restores the legacy one-sweep-per-
curve planning, and a shared :class:`repro.analysis.SessionStats` collects
work counters across experiments.

State spaces are expensive to rebuild, so :func:`line_state_space` caches
them per (line, strategy, crews) combination for the lifetime of the
process; :func:`clear_cache` empties the cache (used by benchmarks that want
to measure construction time).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from repro.analysis import AnalysisSession, SessionStats
from repro.arcade.repair import RepairStrategy
from repro.arcade.statespace import ArcadeStateSpace, build_state_space
from repro.casestudy.facility import (
    DISASTER_1,
    DISASTER_2,
    LINE1,
    LINE2,
    PAPER_STRATEGIES,
    StrategyConfiguration,
    build_line,
)
from repro.casestudy.reporting import ascii_plot, curves_to_csv, format_table
from repro.measures import (
    accumulated_cost_request,
    combined_availability,
    instantaneous_cost_request,
    steady_state_availability_request,
    survivability_request,
    unreliability_request,
)

# ---------------------------------------------------------------------------
# state-space cache
# ---------------------------------------------------------------------------
_SPACE_CACHE: dict[tuple[str, str, int, bool], ArcadeStateSpace] = {}
# Scenario-service clients may expand scenarios (and hence build state
# spaces) from several tasks/threads at once; the lock keeps each space
# built exactly once, since a duplicate build costs seconds.
_SPACE_CACHE_LOCK = threading.Lock()


def line_state_space(
    line: str,
    configuration: StrategyConfiguration,
    with_repairs: bool = True,
) -> ArcadeStateSpace:
    """Build (or fetch from cache) the state space of a line under a strategy."""
    key = (line, configuration.strategy.value, configuration.crews, with_repairs)
    with _SPACE_CACHE_LOCK:
        if key not in _SPACE_CACHE:
            model = build_line(line, configuration.strategy, configuration.crews)
            _SPACE_CACHE[key] = build_state_space(model, with_repairs=with_repairs)
        return _SPACE_CACHE[key]


def clear_cache() -> None:
    """Drop all cached state spaces."""
    with _SPACE_CACHE_LOCK:
        _SPACE_CACHE.clear()


# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------
@dataclass
class TableResult:
    """A tabular experiment result."""

    title: str
    headers: tuple[str, ...]
    rows: list[tuple]

    def to_text(self) -> str:
        return format_table(self.headers, self.rows, title=self.title)

    def to_csv(self) -> str:
        lines = [",".join(self.headers)]
        for row in self.rows:
            lines.append(",".join(str(value) for value in row))
        return "\n".join(lines)

    def column(self, name: str) -> list:
        index = self.headers.index(name)
        return [row[index] for row in self.rows]

    def row_by(self, key_column: str, key: object) -> tuple:
        index = self.headers.index(key_column)
        for row in self.rows:
            if row[index] == key:
                return row
        raise KeyError(f"no row with {key_column}={key!r}")


@dataclass
class CurveResult:
    """A figure-style experiment result: several series over a time grid."""

    title: str
    times: np.ndarray
    series: dict[str, np.ndarray]
    y_label: str = "probability"

    def to_csv(self) -> str:
        return curves_to_csv(self.times, self.series)

    def to_text(self, width: int = 72, height: int = 18) -> str:
        return ascii_plot(
            self.times, self.series, width=width, height=height,
            title=self.title, y_label=self.y_label,
        )

    def value_at(self, name: str, time: float) -> float:
        """Value of one series at the grid point closest to ``time``."""
        index = int(np.argmin(np.abs(self.times - time)))
        return float(self.series[name][index])

    def final_value(self, name: str) -> float:
        return float(self.series[name][-1])


# ---------------------------------------------------------------------------
# Table 1 — state-space sizes
# ---------------------------------------------------------------------------
def table1_state_space(
    configurations: tuple[StrategyConfiguration, ...] = PAPER_STRATEGIES,
) -> TableResult:
    """State-space sizes (states, transitions) per strategy for both lines."""
    rows = []
    for configuration in configurations:
        line1 = line_state_space(LINE1, configuration)
        line2 = line_state_space(LINE2, configuration)
        rows.append(
            (
                configuration.label,
                line1.num_states,
                line1.num_transitions,
                line2.num_states,
                line2.num_transitions,
            )
        )
    return TableResult(
        title="Table 1: state space per repair strategy",
        headers=("strategy", "line1_states", "line1_transitions", "line2_states", "line2_transitions"),
        rows=rows,
    )


# ---------------------------------------------------------------------------
# Table 2 — steady-state availability
# ---------------------------------------------------------------------------
def table2_availability(
    configurations: tuple[StrategyConfiguration, ...] = PAPER_STRATEGIES,
    *,
    lump: bool = False,
    stats: SessionStats | None = None,
    artifacts=None,
) -> TableResult:
    """Steady-state availability per strategy (line 1, line 2, combined).

    The whole table — every (strategy, line) chain — is submitted as one
    :class:`repro.analysis.AnalysisSession` of ``STEADY_STATE`` requests,
    so the availabilities ride the cached linear-solver engine; with
    ``lump`` they are solved on each chain's lumping quotient, and with
    ``artifacts`` (the scenario service's cache) a repeat table performs
    zero new BSCC decompositions and factorizations.
    """
    session = AnalysisSession(lump=lump, stats=stats, artifacts=artifacts)
    indices: dict[tuple[str, str], int] = {}
    for configuration in configurations:
        for line in (LINE1, LINE2):
            indices[(configuration.label, line)] = session.add(
                steady_state_availability_request(
                    line_state_space(line, configuration),
                    tag=(configuration.label, line),
                )
            )
    results = session.execute()
    rows = []
    for configuration in configurations:
        availability1 = float(
            results[indices[(configuration.label, LINE1)]].squeezed[0]
        )
        availability2 = float(
            results[indices[(configuration.label, LINE2)]].squeezed[0]
        )
        rows.append(
            (
                configuration.label,
                availability1,
                availability2,
                combined_availability([availability1, availability2]),
            )
        )
    return TableResult(
        title="Table 2: steady-state availability per repair strategy",
        headers=("strategy", "line1", "line2", "combined"),
        rows=rows,
    )


# ---------------------------------------------------------------------------
# Figure 3 — reliability over time
# ---------------------------------------------------------------------------
def figure3_reliability(
    horizon: float = 1000.0,
    points: int = 101,
    *,
    lump: bool = False,
    batched: bool = True,
    stats: SessionStats | None = None,
) -> CurveResult:
    """Reliability of both lines over ``[0, horizon]`` hours (no repairs).

    Both lines' unreliability curves are submitted as one analysis session
    (one sweep per line — the lines are different chains).
    """
    configuration = StrategyConfiguration(RepairStrategy.DEDICATED, 1)
    times = np.linspace(0.0, horizon, points)
    session = AnalysisSession(lump=lump, batched=batched, stats=stats)
    indices = {
        label: session.add(
            unreliability_request(
                line_state_space(line, configuration, with_repairs=False),
                times,
                tag=label,
            )
        )
        for line, label in ((LINE1, "line1"), (LINE2, "line2"))
    }
    results = session.execute()
    series = {
        label: 1.0 - np.asarray(results[index].squeezed)
        for label, index in indices.items()
    }
    return CurveResult(
        title="Figure 3: reliability over time (no repairs)",
        times=times,
        series=series,
        y_label="reliability",
    )


# ---------------------------------------------------------------------------
# Figures 4/5 — survivability, Line 1, Disaster 1
# ---------------------------------------------------------------------------
_LINE1_SURVIVABILITY_STRATEGIES = (
    StrategyConfiguration(RepairStrategy.DEDICATED, 1),
    StrategyConfiguration(RepairStrategy.FASTEST_REPAIR_FIRST, 1),
    StrategyConfiguration(RepairStrategy.FASTEST_REPAIR_FIRST, 2),
)

#: Public alias: the strategy subset of the paper's Figure 4-7 (Line 1)
#: experiments, shared with the scenario registry and the benchmarks so the
#: figure family is defined exactly once.
LINE1_SURVIVABILITY_STRATEGIES = _LINE1_SURVIVABILITY_STRATEGIES


def _line_service_interval_lower(line: str, interval_index: int) -> Fraction:
    configuration = StrategyConfiguration(RepairStrategy.DEDICATED, 1)
    space = line_state_space(line, configuration)
    intervals = space.model.effective_service_tree().service_intervals()
    return intervals[interval_index][0]


def line_service_interval_lower(line: str, interval_index: int) -> Fraction:
    """Lower endpoint of a line's service interval (X1, X2, ... of the paper).

    The canonical threshold lookup for survivability targets, shared by the
    figure functions, the scenario registry and the benchmarks.
    """
    return _line_service_interval_lower(line, interval_index)


def _survivability_figures(
    line: str,
    disaster: str,
    interval_indices: tuple[int, ...],
    configurations: tuple[StrategyConfiguration, ...],
    horizon: float,
    points: int,
    titles: tuple[str, ...],
    lump: bool,
    batched: bool,
    stats: SessionStats | None,
) -> tuple[CurveResult, ...]:
    """Build a figure pair's full curve family and run it as one session.

    Every (service interval × strategy) curve of the pair becomes one
    request; the planner merges requests that agree on (chain, rate, grid) —
    e.g. several disasters of one strategy — into shared sweeps.
    """
    times = np.linspace(0.0, horizon, points)
    session = AnalysisSession(lump=lump, batched=batched, stats=stats)
    indices: dict[tuple[int, str], int] = {}
    for interval_index in interval_indices:
        threshold = _line_service_interval_lower(line, interval_index)
        for configuration in configurations:
            space = line_state_space(line, configuration)
            indices[(interval_index, configuration.label)] = session.add(
                survivability_request(
                    space, disaster, threshold, times,
                    tag=(interval_index, configuration.label),
                )
            )
    results = session.execute()
    figures = []
    for title, interval_index in zip(titles, interval_indices):
        series = {
            configuration.label: np.asarray(
                results[indices[(interval_index, configuration.label)]].squeezed
            )
            for configuration in configurations
        }
        figures.append(
            CurveResult(title=title, times=times, series=series, y_label="P(recovered)")
        )
    return tuple(figures)


def figure4_5_survivability_line1(
    horizon: float = 4.5,
    points: int = 91,
    *,
    lump: bool = False,
    batched: bool = True,
    stats: SessionStats | None = None,
) -> tuple[CurveResult, CurveResult]:
    """Figures 4 and 5: recovery of Line 1 to X1 and X2 after Disaster 1."""
    return _survivability_figures(
        LINE1, DISASTER_1, (0, 1), _LINE1_SURVIVABILITY_STRATEGIES, horizon, points,
        (
            "Figure 4: survivability Line 1, Disaster 1, service interval X1",
            "Figure 5: survivability Line 1, Disaster 1, service interval X2",
        ),
        lump, batched, stats,
    )


# ---------------------------------------------------------------------------
# Figures 6/7 — costs, Line 1, Disaster 1
# ---------------------------------------------------------------------------
def _cost_figures(
    line: str,
    disaster: str,
    configurations: tuple[StrategyConfiguration, ...],
    instantaneous_horizon: float,
    accumulated_horizon: float,
    points: int,
    titles: tuple[str, str],
    lump: bool,
    batched: bool,
    stats: SessionStats | None,
) -> tuple[CurveResult, CurveResult]:
    """Both cost curves of every strategy, submitted as one session.

    Each strategy contributes an instantaneous-cost and an accumulated-cost
    request on its chain; requests with equal grids share that chain's
    sweep.
    """
    instantaneous_times = np.linspace(0.0, instantaneous_horizon, points)
    accumulated_times = np.linspace(0.0, accumulated_horizon, max(2, points // 2))
    session = AnalysisSession(lump=lump, batched=batched, stats=stats)
    instantaneous_indices: dict[str, int] = {}
    accumulated_indices: dict[str, int] = {}
    for configuration in configurations:
        space = line_state_space(line, configuration)
        instantaneous_indices[configuration.label] = session.add(
            instantaneous_cost_request(
                space, instantaneous_times, disaster,
                tag=("instantaneous", configuration.label),
            )
        )
        accumulated_indices[configuration.label] = session.add(
            accumulated_cost_request(
                space, accumulated_times, disaster,
                tag=("accumulated", configuration.label),
            )
        )
    results = session.execute()
    instantaneous = CurveResult(
        title=titles[0],
        times=instantaneous_times,
        series={
            label: np.asarray(results[index].squeezed)
            for label, index in instantaneous_indices.items()
        },
        y_label="cost per hour",
    )
    accumulated = CurveResult(
        title=titles[1],
        times=accumulated_times,
        series={
            label: np.asarray(results[index].squeezed)
            for label, index in accumulated_indices.items()
        },
        y_label="accumulated cost",
    )
    return instantaneous, accumulated


def figure6_7_costs_line1(
    instantaneous_horizon: float = 4.5,
    accumulated_horizon: float = 10.0,
    points: int = 46,
    *,
    lump: bool = False,
    batched: bool = True,
    stats: SessionStats | None = None,
) -> tuple[CurveResult, CurveResult]:
    """Figures 6 and 7: instantaneous and accumulated cost, Line 1, Disaster 1."""
    return _cost_figures(
        LINE1,
        DISASTER_1,
        _LINE1_SURVIVABILITY_STRATEGIES,
        instantaneous_horizon,
        accumulated_horizon,
        points,
        (
            "Figure 6: instantaneous cost Line 1, Disaster 1",
            "Figure 7: accumulated cost Line 1, Disaster 1",
        ),
        lump, batched, stats,
    )


# ---------------------------------------------------------------------------
# Figures 8/9 — survivability, Line 2, Disaster 2
# ---------------------------------------------------------------------------
def figure8_9_survivability_line2(
    horizon: float = 100.0,
    points: int = 101,
    *,
    lump: bool = False,
    batched: bool = True,
    stats: SessionStats | None = None,
) -> tuple[CurveResult, CurveResult]:
    """Figures 8 and 9: recovery of Line 2 to X1 and X3 after Disaster 2."""
    return _survivability_figures(
        LINE2, DISASTER_2, (0, 2), PAPER_STRATEGIES, horizon, points,
        (
            "Figure 8: survivability Line 2, Disaster 2, service interval X1",
            "Figure 9: survivability Line 2, Disaster 2, service interval X3",
        ),
        lump, batched, stats,
    )


# ---------------------------------------------------------------------------
# Figures 10/11 — costs, Line 2, Disaster 2
# ---------------------------------------------------------------------------
_LINE2_COST_STRATEGIES = (
    StrategyConfiguration(RepairStrategy.FASTEST_FAILURE_FIRST, 1),
    StrategyConfiguration(RepairStrategy.FASTEST_FAILURE_FIRST, 2),
    StrategyConfiguration(RepairStrategy.FASTEST_REPAIR_FIRST, 1),
    StrategyConfiguration(RepairStrategy.FASTEST_REPAIR_FIRST, 2),
)

#: Public alias: the strategy subset of Figures 10/11 (Line 2 costs).
LINE2_COST_STRATEGIES = _LINE2_COST_STRATEGIES


def figure10_11_costs_line2(
    instantaneous_horizon: float = 50.0,
    accumulated_horizon: float = 50.0,
    points: int = 51,
    *,
    lump: bool = False,
    batched: bool = True,
    stats: SessionStats | None = None,
) -> tuple[CurveResult, CurveResult]:
    """Figures 10 and 11: instantaneous and accumulated cost, Line 2, Disaster 2."""
    return _cost_figures(
        LINE2,
        DISASTER_2,
        _LINE2_COST_STRATEGIES,
        instantaneous_horizon,
        accumulated_horizon,
        points,
        (
            "Figure 10: instantaneous cost Line 2, Disaster 2",
            "Figure 11: accumulated cost Line 2, Disaster 2",
        ),
        lump, batched, stats,
    )


# ---------------------------------------------------------------------------
# run everything
# ---------------------------------------------------------------------------
@dataclass
class ExperimentSuiteResult:
    """All reproduced tables and figures, keyed by their paper identifier."""

    tables: dict[str, TableResult] = field(default_factory=dict)
    figures: dict[str, CurveResult] = field(default_factory=dict)

    def to_text(self) -> str:
        parts = [table.to_text() for table in self.tables.values()]
        parts += [figure.to_text() for figure in self.figures.values()]
        return "\n\n".join(parts)


def run_all_experiments(
    fast: bool = False,
    *,
    lump: bool = False,
    batched: bool = True,
    stats: SessionStats | None = None,
) -> ExperimentSuiteResult:
    """Run every table and figure of the paper and return the results.

    With ``fast=True`` the time grids are coarser (used by smoke tests).
    ``lump`` configures Table 2's and the figure families' analysis
    sessions, ``batched`` the figure families', and ``stats`` collects their
    work counters across the whole suite.
    """
    points = 21 if fast else 101
    session_options = dict(lump=lump, batched=batched, stats=stats)
    result = ExperimentSuiteResult()
    result.tables["table1"] = table1_state_space()
    result.tables["table2"] = table2_availability(lump=lump, stats=stats)
    result.figures["figure3"] = figure3_reliability(points=points, **session_options)
    figure4, figure5 = figure4_5_survivability_line1(
        points=max(points, 10), **session_options
    )
    result.figures["figure4"] = figure4
    result.figures["figure5"] = figure5
    figure6, figure7 = figure6_7_costs_line1(
        points=max(points // 2, 10), **session_options
    )
    result.figures["figure6"] = figure6
    result.figures["figure7"] = figure7
    figure8, figure9 = figure8_9_survivability_line2(points=points, **session_options)
    result.figures["figure8"] = figure8
    result.figures["figure9"] = figure9
    figure10, figure11 = figure10_11_costs_line2(
        points=max(points // 2, 10), **session_options
    )
    result.figures["figure10"] = figure10
    result.figures["figure11"] = figure11
    return result
