"""Tests for the experiment renderer and the command-line front end.

The full-resolution experiments are exercised by the benchmark harness; here
they run on coarse grids to keep the test suite fast while still covering
the registry session, the renderer and the CLI end to end.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro import cli
from repro.analysis import AnalysisSession, planner
from repro.casestudy import experiments as exp
from repro.casestudy.facility import PAPER_STRATEGIES, StrategyConfiguration
from repro.arcade.repair import RepairStrategy
from repro.cli import build_parser, build_serve_parser, main, run_experiments
from repro.service import paper_registry
from repro.service.registry import MAX_GRID_POINTS


@pytest.fixture(autouse=True)
def _keep_cache():
    """The experiment cache is shared; leave it in place to speed the suite up."""
    yield


class TestExperimentHelpers:
    def test_line_state_space_is_cached(self):
        configuration = StrategyConfiguration(RepairStrategy.DEDICATED, 1)
        first = exp.line_state_space("line2", configuration)
        second = exp.line_state_space("line2", configuration)
        assert first is second

    def test_clear_cache(self):
        configuration = StrategyConfiguration(RepairStrategy.DEDICATED, 1)
        first = exp.line_state_space("line2", configuration)
        exp.clear_cache()
        second = exp.line_state_space("line2", configuration)
        assert first is not second

    def test_table_result_helpers(self):
        table = exp.TableResult("t", ("name", "value"), [("a", 1), ("b", 2)])
        assert table.column("value") == [1, 2]
        assert table.row_by("name", "b") == ("b", 2)
        with pytest.raises(KeyError):
            table.row_by("name", "zz")
        assert "name,value" in table.to_csv()

    def test_curve_result_helpers(self):
        curve = exp.CurveResult(
            "c", np.array([0.0, 1.0, 2.0]), {"s": np.array([0.0, 0.5, 1.0])}
        )
        assert curve.value_at("s", 1.1) == 0.5
        assert curve.final_value("s") == 1.0
        assert "t,s" in curve.to_csv()
        assert "c" in curve.to_text()


class TestFigureExperimentsCoarse:
    def test_figure3_reliability(self):
        result = run_experiments(["fig3"], points=9)["fig3"]
        assert set(result.series) == {"line1", "line2"}
        assert np.all(result.series["line2"] >= result.series["line1"] - 1e-12)

    def test_figure8_9_line2(self):
        results = run_experiments(["fig8", "fig9"], points=11)
        figure8, figure9 = results["fig8"], results["fig9"]
        assert set(figure8.series) == {"DED", "FRF-1", "FRF-2", "FFF-1", "FFF-2"}
        assert figure8.value_at("FFF-1", 20.0) < figure8.value_at("FRF-1", 20.0)
        assert figure9.value_at("FFF-2", 20.0) > figure9.value_at("FRF-2", 20.0)

    def test_figure10_11_line2(self):
        results = run_experiments(["fig10", "fig11"], points=7)
        figure10, figure11 = results["fig10"], results["fig11"]
        for values in figure10.series.values():
            assert values[0] == pytest.approx(15.0, abs=1e-6)
        assert figure11.final_value("FFF-1") > figure11.final_value("FRF-2")

    def test_each_curve_keeps_its_registry_grid(self):
        figures = dict(exp.PAPER_EXPERIMENTS)
        del figures["table2"]
        grids = {name: len(result.times) for name, result in run_experiments(figures).items()}
        assert grids == {
            "fig3": 101, "fig4": 91, "fig5": 91, "fig6": 46, "fig7": 23,
            "fig8": 101, "fig9": 101, "fig10": 51, "fig11": 25,
        }
        coarse = run_experiments(figures, points=6)
        assert {len(result.times) for result in coarse.values()} == {6}

    def test_titles_and_series_names(self):
        results = run_experiments(["table2", "fig3", "fig5", "fig6", "fig11"], points=3)
        assert results["table2"].headers == ("strategy", "line1", "line2", "combined")
        assert results["table2"].column("strategy") == [c.label for c in PAPER_STRATEGIES]
        assert results["fig3"].to_csv().splitlines()[0] == "t,line1,line2"
        assert results["fig5"].title == (
            "Figure 5: survivability Line 1, Disaster 1, service interval X2"
        )
        assert results["fig6"].title == "Figure 6: instantaneous cost Line 1, Disaster 1"
        assert results["fig11"].title == "Figure 11: accumulated cost Line 2, Disaster 2"
        assert results["fig11"].to_csv().splitlines()[0] == "t,FFF-1,FFF-2,FRF-1,FRF-2"


class TestCommandLine:
    def test_parser_rejects_unknown_experiment(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["table99"])

    def test_fig3_to_csv_files(self, tmp_path, capsys):
        exit_code = main(["fig3", "--points", "5", "--output", str(tmp_path), "--no-plot"])
        assert exit_code == 0
        written = tmp_path / "fig3.csv"
        assert written.exists()
        header = written.read_text().splitlines()[0]
        assert header == "t,line1,line2"
        captured = capsys.readouterr()
        assert "wrote" in captured.out

    def test_fig9_ascii_plot_output(self, capsys):
        exit_code = main(["fig9", "--points", "5"])
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "Figure 9" in captured.out

    def test_table2_honours_the_lump_flag(self, monkeypatch, capsys):
        # The DED chains keep the unlumped reference cheap (no power
        # iteration); the CLI's own options reach the session untouched.
        registry = paper_registry()
        registry.register(
            replace(registry.get("table2"), strategies=PAPER_STRATEGIES[:1]),
            replace_existing=True,
        )
        monkeypatch.setattr(cli, "paper_registry", lambda: registry)
        runs = []

        class Recorded(AnalysisSession):
            def execute(self):
                results = super().execute()
                runs.append((self.stats, [result.squeezed for result in results]))
                return results

        monkeypatch.setattr(cli, "AnalysisSession", Recorded)
        outputs = []
        for flags in ([], ["--lump"], ["--no-lump"]):
            assert main(["table2", "--no-plot", *flags]) == 0
            outputs.append(capsys.readouterr().out)
        (default_stats, default), (lumped_stats, lumped), (plain_stats, plain) = runs
        for stats in (default_stats, lumped_stats):
            assert stats.lumped_groups > 0
            assert stats.lumped_states_after < stats.lumped_states_before
        assert plain_stats.lumped_groups == 0
        assert plain_stats.lumped_states_after == plain_stats.lumped_states_before == 0
        np.testing.assert_array_equal(default, lumped)
        np.testing.assert_allclose(lumped, plain, rtol=0.0, atol=1e-12)
        assert ["lumped" in out for out in outputs] == [True, True, False]

    def test_no_batched_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["fig3", "--no-batched"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --no-batched" in capsys.readouterr().err

    def test_all_runs_the_registry_as_one_session(self, monkeypatch, capsys):
        sessions = []
        partitions = []

        class Recorded(AnalysisSession):
            def execute(self):
                sessions.append(len(self))
                return super().execute()

        partition = planner.lumping_partition

        def counted(*args, **kwargs):
            partitions.append(1)
            return partition(*args, **kwargs)

        monkeypatch.setattr(cli, "AnalysisSession", Recorded)
        monkeypatch.setattr(planner, "lumping_partition", counted)
        assert main(["all", "--no-plot"]) == 0
        assert sessions == [42]
        assert len(partitions) == 12  # one per distinct chain
        summary = capsys.readouterr().out.strip().splitlines()[-1]
        assert summary.startswith("[session: requests=42 groups=42 sweeps=32 matvecs=5096 ")

    @pytest.mark.parametrize(
        "argv",
        [["fig3", "--engine", "dense"], ["serve", "--engine", "sparse"]],
        ids=["repro", "serve"],
    )
    def test_engine_flag_is_a_usage_error(self, argv, capsys):
        """No front end lets a caller pick the numeric backend."""
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        error = capsys.readouterr().err
        assert "Traceback" not in error
        assert error.splitlines()[-1].endswith(
            "error: unrecognized arguments: " + " ".join(argv[-2:])
        )


class TestGridPointValidation:
    """``--points`` outside 2..MAX_GRID_POINTS is a clean usage error on every front end."""

    @pytest.mark.parametrize(
        "command",
        [["fig3"], ["serve", "--scenarios", "fig3"], ["optimize", "--line", "2"]],
        ids=["repro", "serve", "optimize"],
    )
    @pytest.mark.parametrize("points", ["1", "0", "-1"])
    def test_too_few_points_exit_with_usage_error(self, command, points, capsys):
        with pytest.raises(SystemExit) as exited:
            main([*command, "--points", points])
        assert exited.value.code == 2
        error = capsys.readouterr().err
        assert "Traceback" not in error
        assert error.endswith(
            "error: argument --points: must be at least 2 (t = 0 and the horizon), "
            f"got {points}\n"
        )

    def test_two_points_are_accepted(self):
        args = build_parser().parse_args(["fig3", "--points", "2"])
        assert args.points == 2

    @pytest.mark.parametrize(
        "command",
        [["fig3"], ["serve", "--scenarios", "fig3"], ["optimize", "--line", "2"]],
        ids=["repro", "serve", "optimize"],
    )
    def test_too_many_points_exit_with_usage_error(self, command, capsys):
        # A trillion-point grid was a traceback (numpy asked for 7.28 TiB).
        with pytest.raises(SystemExit) as exited:
            main([*command, "--points", "1000000000000"])
        assert exited.value.code == 2
        error = capsys.readouterr().err
        assert "Traceback" not in error
        assert error.endswith(
            f"error: argument --points: must be at most {MAX_GRID_POINTS}, got 1000000000000\n"
        )

    def test_largest_grid_is_accepted(self):
        args = build_parser().parse_args(["fig3", "--points", str(MAX_GRID_POINTS)])
        assert args.points == MAX_GRID_POINTS


class TestNumericFlagValidation:
    """Out-of-range numbers are one-line usage errors, never tracebacks or clamps."""

    CASES = [
        (["serve", "--window", "-1"], "argument --window: must be at least 0, got -1"),
        (["serve", "--max-batch", "0"], "argument --max-batch: must be at least 1, got 0"),
        (["serve", "--max-pending", "0"], "argument --max-pending: must be at least 1, got 0"),
        (["serve", "--timeout", "-1"], "argument --timeout: must be greater than 0, got -1"),
        (
            ["serve", "--restart-limit", "-1"],
            "argument --restart-limit: must be at least 0, got -1",
        ),
        (["serve", "--clients", "0"], "argument --clients: must be at least 1, got 0"),
        (["serve", "--repeat", "0"], "argument --repeat: must be at least 1, got 0"),
        (
            ["optimize", "--line", "2", "--interval", "9"],
            "argument --interval: line2 has service intervals 0..3, got 9",
        ),
        (
            ["optimize", "--line", "2", "--disaster", "nope"],
            "argument --disaster: line2 has no disaster 'nope' "
            "(choose from disaster1, disaster2)",
        ),
        (
            ["optimize", "--line", "2", "--horizon", "-1"],
            "argument --horizon: must be greater than 0, got -1",
        ),
        (["serve", "--http", "-1"], "argument --http: must be a port from 0 to 65535, got -1"),
        (
            ["serve", "--http", "70000"],
            "argument --http: must be a port from 0 to 65535, got 70000",
        ),
        (["optimize", "--crews", "0"], "argument --crews: must be at least 1, got 0"),
        (
            ["optimize", "--max-iterations", "-3", "--objective", "availability"],
            "argument --max-iterations: must be at least 1, got -3",
        ),
    ]

    @pytest.mark.parametrize(
        "argv, message", CASES, ids=[" ".join(argv) for argv, _ in CASES]
    )
    def test_bad_value_exits_with_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        error = capsys.readouterr().err
        assert "Traceback" not in error
        assert error.splitlines()[-1].endswith(f"error: {message}")

    def test_boundary_values_are_accepted(self):
        args = build_serve_parser().parse_args(
            ["--window", "0", "--restart-limit", "0", "--clients", "1", "--timeout", "0.5"]
        )
        assert (args.window, args.restart_limit, args.clients, args.timeout) == (0.0, 0, 1, 0.5)

    def test_port_range_ends_are_accepted(self):
        parser = build_serve_parser()
        ports = [parser.parse_args(["--http", text]).http for text in ("0", "65535")]
        assert ports == [0, 65535]
