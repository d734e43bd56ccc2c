"""Tests for the OPTIMIZED scenario family and the optimize CLI.

The family is opt-in (``paper_registry(include_optimized=True)``) because
its expansion runs the rollout optimizer; these tests check the expansion
contract (fixed curves + ``"OPT"``, memoized optimizer runs, optimized
dominates), the ``/metrics`` hookup and the ``python -m repro optimize``
entry point.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import AnalysisSession
from repro.optimize import global_optimizer_stats
from repro.optimize.scenario import clear_cache, optimized_policies
from repro.service import ArtifactCache, ScenarioService, paper_registry


@pytest.fixture(autouse=True)
def fresh_optimizer_cache():
    clear_cache()
    yield
    clear_cache()


class TestRegistryIntegration:
    def test_optimized_family_is_opt_in(self):
        assert "fig8_9_optimized" not in paper_registry().names
        registry = paper_registry(include_optimized=True)
        assert "fig8_9_optimized" in registry.names
        assert "fig11_optimized" in registry.names
        described = {spec["name"]: spec for spec in registry.describe()}
        assert described["fig8_9_optimized"]["measure"] == "optimized_survivability"
        assert (
            described["fig11_optimized"]["measure"] == "optimized_accumulated_cost"
        )

    def test_expansion_emits_fixed_curves_plus_opt(self):
        registry = paper_registry(include_optimized=True)
        requests = registry.expand("fig8_9_optimized", points=9)
        labels = [request.tag[-1] for request in requests]
        assert labels == ["DED", "FRF-1", "FRF-2", "FFF-1", "FFF-2", "OPT"]
        for request in requests:
            assert request.tag[0] == "fig8_9_optimized"
            assert len(request.times) == 9

    def test_optimized_curve_dominates_fixed_curves(self):
        registry = paper_registry(include_optimized=True)
        requests = registry.expand("fig8_9_optimized", points=9)
        session = AnalysisSession()
        indices = [session.add(request) for request in requests]
        results = session.execute()
        finals = {
            request.tag[-1]: float(results[index].squeezed[-1])
            for request, index in zip(requests, indices)
        }
        opt = finals.pop("OPT")
        assert opt >= max(finals.values()) - 1e-9

    def test_optimizer_runs_are_memoized_per_cell(self):
        registry = paper_registry(include_optimized=True)
        registry.expand("fig8_9_optimized", points=9)
        ctmdp, fixed, result = optimized_policies(
            "line2", "survivability", "disaster2", 0, 24.0
        )
        again = optimized_policies("line2", "survivability", "disaster2", 0, 24.0)
        assert again[0] is ctmdp and again[2] is result
        assert set(fixed) == {"DED", "FRF-1", "FRF-2", "FFF-1", "FFF-2"}


class TestMetricsHookup:
    def test_service_metrics_include_optimizer_counters(self):
        service = ScenarioService(artifacts=ArtifactCache())
        text = service.metrics_text()
        assert "# TYPE repro_optimizer_policy_evaluations_total counter" in text
        assert any(
            line.startswith("repro_optimizer_coalesced_sweeps_total ")
            for line in text.splitlines()
        )


class TestOptimizeCLI:
    def test_main_dispatches_optimize(self, capsys):
        from repro.cli import main

        code = main(
            [
                "optimize",
                "--line",
                "2",
                "--objective",
                "availability",
                "--crews",
                "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "OPT" in out
        assert "policy iteration: converged" in out

    def test_rollout_objective_and_metrics_flag(self, capsys):
        from repro.optimize.cli import optimize_main

        before = global_optimizer_stats().rollout_iterations
        code = optimize_main(
            [
                "--line",
                "2",
                "--objective",
                "survivability",
                "--points",
                "9",
                "--metrics",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "rollout:" in out
        assert "repro_optimizer_rollout_iterations_total" in out
        assert global_optimizer_stats().rollout_iterations > before

    def test_crew_limit_below_one_exits_2(self, capsys):
        from repro.optimize.cli import optimize_main

        with pytest.raises(SystemExit) as exited:
            optimize_main(["--line", "2", "--crews", "0"])
        assert exited.value.code == 2
        error = capsys.readouterr().err
        assert error.splitlines()[-1].endswith(
            "error: argument --crews: must be at least 1, got 0"
        )
