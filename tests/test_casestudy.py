"""Tests for the water-treatment case study: facility builders and paper reproduction.

The heavyweight full sweeps (Line 1 with queued strategies) live in the
benchmark harness; these tests cover the facility construction and reproduce
the paper's numbers where that is cheap (dedicated repair, Line 2 sweeps,
service intervals, disaster definitions).
"""

from fractions import Fraction

import numpy as np
import pytest

from repro.arcade import build_state_space
from repro.arcade.repair import RepairStrategy
from repro.casestudy import (
    DISASTER_1,
    DISASTER_2,
    PAPER_STRATEGIES,
    build_line1,
    build_line2,
)
from repro.casestudy.experiments import line_state_space
from repro.casestudy.facility import LINE1, LINE2, StrategyConfiguration, build_line
from repro.casestudy.reporting import ascii_plot, curves_to_csv, format_table
from repro.measures import (
    combined_availability,
    reliability,
    service_intervals,
    steady_state_availability,
    survivability,
)

#: Published values from Table 2 of the paper (dedicated repair).
PAPER_TABLE2_DED = {"line1": 0.7442018, "line2": 0.8186317, "combined": 0.9536063}


class TestFacilityConstruction:
    def test_line1_inventory(self):
        model = build_line1()
        classes = {}
        for component in model.components:
            classes[component.component_class] = classes.get(component.component_class, 0) + 1
        assert classes == {"softening_tank": 3, "sand_filter": 3, "reservoir": 1, "pump": 4}
        assert len(model.repair_units) == 1
        assert model.spare_units[0].required == 3

    def test_line2_inventory(self):
        model = build_line2()
        classes = {}
        for component in model.components:
            classes[component.component_class] = classes.get(component.component_class, 0) + 1
        assert classes == {"softening_tank": 3, "sand_filter": 2, "reservoir": 1, "pump": 3}
        assert model.spare_units[0].required == 2

    def test_component_parameters_follow_figure2(self):
        model = build_line1()
        pump = model.component("line1_pump1")
        assert (pump.mttf, pump.mttr) == (500.0, 1.0)
        softener = model.component("line1_softener1")
        assert (softener.mttf, softener.mttr) == (2000.0, 5.0)
        sand_filter = model.component("line1_sandfilter1")
        assert (sand_filter.mttf, sand_filter.mttr) == (1000.0, 100.0)
        reservoir = model.component("line1_reservoir")
        assert (reservoir.mttf, reservoir.mttr) == (6000.0, 12.0)

    def test_disasters(self):
        line2 = build_line2()
        disaster2 = line2.disaster(DISASTER_2)
        assert len(disaster2.failed_components) == 5
        assert f"line2_reservoir" in disaster2.failed_components
        line1 = build_line1()
        assert len(line1.disaster(DISASTER_1).failed_components) == 4

    def test_paper_strategy_sweep(self):
        labels = [configuration.label for configuration in PAPER_STRATEGIES]
        assert labels == ["DED", "FRF-1", "FRF-2", "FFF-1", "FFF-2"]

    def test_build_line_dispatch(self):
        assert build_line("line1").name == "water_treatment_line1"
        assert build_line("line2", "fff", 2).strategy_label() == "FFF-2"
        with pytest.raises(ValueError):
            build_line("line3")

    def test_fully_operational_means_one_pump_may_fail(self):
        model = build_line1()
        assert model.fault_tree.is_operational(["line1_pump1"])
        assert model.fault_tree.is_down(["line1_pump1", "line1_pump2"])
        assert model.fault_tree.is_down(["line1_softener1"])


class TestServiceIntervals:
    def test_line1_has_three_intervals(self):
        intervals = service_intervals(build_line1())
        assert len(intervals) == 3
        assert intervals[0][0] == Fraction(1, 3)
        assert intervals[1][0] == Fraction(2, 3)
        assert intervals[2] == (Fraction(1), Fraction(1))

    def test_line2_has_four_intervals(self):
        intervals = service_intervals(build_line2())
        assert len(intervals) == 4
        assert [interval[0] for interval in intervals] == [
            Fraction(1, 3),
            Fraction(1, 2),
            Fraction(2, 3),
            Fraction(1),
        ]

    @pytest.mark.parametrize("line", [LINE1, LINE2])
    def test_service_level_sets_match_the_per_state_comparison(self, line):
        # FRF-1: the largest spaces (33,280 states on Line 1).
        space = line_state_space(line, PAPER_STRATEGIES[1])
        levels = sorted(set(space.service_levels))
        for threshold in [*levels, *(float(level) for level in levels), 0.0, 1.5]:
            limit = (
                threshold
                if isinstance(threshold, Fraction)
                else Fraction(threshold).limit_denominator(10**6)
            )
            expected = [
                index
                for index, level in enumerate(space.service_levels)
                if level >= limit
            ]
            np.testing.assert_array_equal(
                space.states_with_service_at_least(threshold), expected
            )


class TestPaperNumbers:
    def test_table1_dedicated_state_space_exact(self):
        line1 = build_state_space(build_line1("dedicated"))
        assert (line1.num_states, line1.num_transitions) == (2048, 22528)
        line2 = build_state_space(build_line2("dedicated"))
        assert line2.num_states == 512

    def test_table2_dedicated_availability_matches_paper(self):
        availability1 = steady_state_availability(build_line1("dedicated"))
        availability2 = steady_state_availability(build_line2("dedicated"))
        assert availability1 == pytest.approx(PAPER_TABLE2_DED["line1"], abs=1e-5)
        assert availability2 == pytest.approx(PAPER_TABLE2_DED["line2"], abs=1e-5)
        assert combined_availability([availability1, availability2]) == pytest.approx(
            PAPER_TABLE2_DED["combined"], abs=1e-5
        )

    def test_table2_line2_strategy_ordering(self):
        values = {
            configuration.label: steady_state_availability(
                build_line2(configuration.strategy, configuration.crews)
            )
            for configuration in PAPER_STRATEGIES
        }
        assert values["DED"] >= max(values.values()) - 1e-12
        assert values["FRF-2"] > values["FRF-1"]
        assert values["FFF-2"] > values["FFF-1"]
        assert values["DED"] - values["FRF-2"] < 1e-3
        assert values["DED"] - values["FRF-1"] > 5e-3

    def test_figure3_line2_more_reliable_than_line1(self):
        for t in (100.0, 300.0, 600.0):
            assert reliability(build_line2(), t) > reliability(build_line1(), t)

    def test_figure8_fff1_recovers_slowest_to_x1(self):
        threshold = Fraction(1, 3)
        time = 20.0
        values = {
            configuration.label: survivability(
                build_state_space(build_line2(configuration.strategy, configuration.crews)),
                DISASTER_2,
                threshold,
                time,
            )
            for configuration in PAPER_STRATEGIES
        }
        assert values["FFF-1"] < min(v for k, v in values.items() if k != "FFF-1")
        assert values["DED"] >= max(values.values()) - 1e-12


class TestReporting:
    def test_format_table_alignment_and_errors(self):
        text = format_table(("a", "b"), [(1, 2.5), ("x", 3)], title="T")
        assert text.splitlines()[0] == "T"
        assert "2.5" in text
        with pytest.raises(ValueError):
            format_table(("a",), [(1, 2)])

    def test_curves_to_csv(self):
        times = np.array([0.0, 1.0])
        csv = curves_to_csv(times, {"s": np.array([0.5, 0.75])})
        lines = csv.splitlines()
        assert lines[0] == "t,s"
        assert lines[1].startswith("0,")
        with pytest.raises(ValueError):
            curves_to_csv(times, {"s": np.array([1.0])})

    def test_ascii_plot_contains_series_markers_and_legend(self):
        times = np.linspace(0.0, 1.0, 5)
        plot = ascii_plot(times, {"up": times, "down": 1 - times}, title="demo")
        assert "demo" in plot
        assert "* up" in plot and "+ down" in plot
        with pytest.raises(ValueError):
            ascii_plot(times, {})
