"""The paper's tables and figures (Section 5), rendered from registry results.

:func:`repro.service.paper_registry` is the one definition of what Table 2
and Figs. 3-11 evaluate: the lines, strategies, disasters, service
intervals, horizons and grids.  ``python -m repro`` expands the families a
run needs into one :class:`repro.analysis.AnalysisSession`
(:func:`repro.cli.run_experiments`), and :func:`render_experiment` turns a
family's tagged results back into the table or figure, as a result object
with ``to_text()``/``to_csv()`` renderings.  Table 1 counts states and
transitions and needs no session.

State spaces are expensive to rebuild, so :func:`line_state_space` caches
them per (line, strategy, crews) combination for the lifetime of the
process; :func:`clear_cache` empties the cache (used by benchmarks that want
to measure construction time).
"""

from __future__ import annotations

import threading
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from repro.analysis import MeasureResult
from repro.arcade.repair import RepairStrategy
from repro.arcade.statespace import ArcadeStateSpace, build_state_space
from repro.casestudy.facility import (
    LINE1,
    LINE2,
    PAPER_STRATEGIES,
    StrategyConfiguration,
    build_line,
)
from repro.casestudy.reporting import ascii_plot, curves_to_csv, format_table
from repro.measures import combined_availability

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


def line_service_interval_lower(line: str, interval_index: int) -> Fraction:
    """Lower endpoint of a line's service interval (X1, X2, ... of the paper).

    The threshold lookup for survivability targets, shared by the scenario
    registry, the tests and the benchmarks.
    """
    configuration = StrategyConfiguration(RepairStrategy.DEDICATED, 1)
    space = line_state_space(line, configuration)
    intervals = space.model.effective_service_tree().service_intervals()
    return intervals[interval_index][0]


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
# Table 2 and Figures 3-11, from the results of their registry families
# ---------------------------------------------------------------------------
#: Experiment name -> (registry family, which of the family's figures).  A
#: survivability family draws one figure per service interval, in order.
PAPER_EXPERIMENTS = {
    "table2": ("table2", 0),
    "fig3": ("fig3", 0),
    "fig4": ("fig4_5", 0),
    "fig5": ("fig4_5", 1),
    "fig6": ("fig6", 0),
    "fig7": ("fig7", 0),
    "fig8": ("fig8_9", 0),
    "fig9": ("fig8_9", 1),
    "fig10": ("fig10", 0),
    "fig11": ("fig11", 0),
}

_Y_LABELS = {
    "unreliability": "reliability",
    "survivability": "P(recovered)",
    "instantaneous_cost": "cost per hour",
    "accumulated_cost": "accumulated cost",
}


def _display(name: str) -> str:
    """``"line1"`` -> ``"Line 1"``, ``"disaster2"`` -> ``"Disaster 2"``."""
    stem = name.rstrip("0123456789")
    return f"{stem.capitalize()} {name[len(stem):]}"


def render_experiment(
    name: str, spec, results: Mapping[tuple, MeasureResult]
) -> TableResult | CurveResult:
    """Table 2 or one figure (``name`` as in :data:`PAPER_EXPERIMENTS`).

    ``spec`` is the experiment's family, a
    :class:`repro.service.ScenarioSpec`, and ``results`` maps request tags
    to results; it must hold every request the family expanded to.
    """
    position = PAPER_EXPERIMENTS[name][1]
    if spec.measure == "availability":
        rows = []
        for configuration in spec.strategies:
            availabilities = [
                float(results[(spec.name, line, configuration.label)].squeezed[0])
                for line in spec.lines
            ]
            rows.append(
                (
                    configuration.label,
                    *availabilities,
                    combined_availability(availabilities),
                )
            )
        return TableResult(
            title="Table 2: steady-state availability per repair strategy",
            headers=("strategy", *spec.lines, "combined"),
            rows=rows,
        )
    figure = f"Figure {name.removeprefix('fig')}"
    if spec.measure == "unreliability":
        (configuration,) = spec.strategies
        curves = {
            line: results[(spec.name, line, configuration.label)]
            for line in spec.lines
        }
        series = {
            line: 1.0 - np.asarray(result.squeezed) for line, result in curves.items()
        }
        title = f"{figure}: reliability over time (no repairs)"
    else:
        (line,), (disaster,) = spec.lines, spec.disasters
        where = f"{_display(line)}, {_display(disaster)}"
        if spec.measure == "survivability":
            interval_index = spec.interval_indices[position]
            tag = (spec.name, line, disaster, interval_index)
            interval = f"service interval X{interval_index + 1}"
            title = f"{figure}: survivability {where}, {interval}"
        else:
            tag = (spec.name, line, disaster)
            title = f"{figure}: {spec.measure.replace('_', ' ')} {where}"
        curves = {
            configuration.label: results[(*tag, configuration.label)]
            for configuration in spec.strategies
        }
        series = {
            label: np.asarray(result.squeezed) for label, result in curves.items()
        }
    return CurveResult(
        title=title,
        times=next(iter(curves.values())).times,
        series=series,
        y_label=_Y_LABELS[spec.measure],
    )
