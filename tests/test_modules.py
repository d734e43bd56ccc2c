"""Tests for stochastic reactive modules: data model and exploration."""

import numpy as np
import pytest

from repro.ctmc import steady_state_distribution, time_bounded_reachability
from repro.expr import Const, Var
from repro.modules import (
    Command,
    Module,
    ModulesFile,
    RewardStructureDefinition,
    Update,
    VariableDeclaration,
    build_ctmc,
    build_reward_model,
)
from repro.modules.model import ModulesError


def repairable_component(name: str, fail_rate: float, repair_rate: float) -> Module:
    module = Module(name)
    module.add_variable(VariableDeclaration.boolean(f"{name}_up", True))
    module.add_command(
        Command.simple("", Var(f"{name}_up"), fail_rate, {f"{name}_up": Const(False)})
    )
    module.add_command(
        Command.simple("", ~Var(f"{name}_up"), repair_rate, {f"{name}_up": Const(True)})
    )
    return module


class TestModel:
    def test_variable_declarations(self):
        boolean = VariableDeclaration.boolean("b", True)
        assert boolean.initial_value is True
        integer = VariableDeclaration.integer("i", 0, 5, 2)
        assert integer.initial_value == 2
        with pytest.raises(ModulesError):
            VariableDeclaration.integer("bad", 3, 1)
        with pytest.raises(ModulesError):
            integer.validate_value(9)

    def test_update_apply(self):
        update = Update({"x": Var("x") + Const(1), "y": Const(0)})
        assert update.apply({"x": 3, "y": 7, "z": 1}) == {"x": 4, "y": 0, "z": 1}
        assert update.variables_written() == {"x", "y"}
        assert "x" in update.variables_read()

    def test_command_requires_alternatives(self):
        with pytest.raises(ModulesError):
            Command("", Const(True), [])

    def test_duplicate_variable_rejected(self):
        system = ModulesFile()
        system.add_module(repairable_component("a", 0.1, 1.0))
        duplicate = Module("dup").add_variable(VariableDeclaration.boolean("a_up"))
        system.add_module(duplicate)
        with pytest.raises(ModulesError):
            system.validate()

    def test_writing_foreign_variable_rejected(self):
        module = Module("m").add_variable(VariableDeclaration.boolean("x"))
        module.add_command(Command.simple("", Const(True), 1.0, {"other": Const(True)}))
        with pytest.raises(ModulesError):
            module.validate()

    def test_unknown_variable_in_guard_rejected(self):
        system = ModulesFile()
        module = Module("m").add_variable(VariableDeclaration.boolean("x"))
        module.add_command(Command.simple("", Var("ghost"), 1.0, {"x": Const(True)}))
        system.add_module(module)
        with pytest.raises(ModulesError):
            system.validate()

    def test_label_with_unknown_variable_rejected(self):
        system = ModulesFile()
        system.add_module(repairable_component("a", 0.1, 1.0))
        system.add_label("broken", Var("ghost"))
        with pytest.raises(ModulesError):
            system.validate()


class TestExploration:
    def test_independent_components_product_space(self):
        system = ModulesFile()
        system.add_module(repairable_component("a", 0.1, 1.0))
        system.add_module(repairable_component("b", 0.2, 2.0))
        system.add_label("both_up", Var("a_up") & Var("b_up"))
        result = build_ctmc(system)
        assert result.num_states == 4
        assert result.num_transitions == 8
        distribution = steady_state_distribution(result.chain)
        expected = (1.0 / 1.1) * (2.0 / 2.2)
        assert distribution[result.chain.label_mask("both_up")].sum() == pytest.approx(expected)

    def test_synchronised_rates_multiply(self):
        # Component holds the failure rate; a monitor synchronises with rate 1
        # and counts failures: the joint rate must equal the component's.
        system = ModulesFile()
        component = Module("component")
        component.add_variable(VariableDeclaration.boolean("up", True))
        component.add_command(Command.simple("fail", Var("up"), 0.25, {"up": Const(False)}))
        monitor = Module("monitor")
        monitor.add_variable(VariableDeclaration.integer("count", 0, 1, 0))
        monitor.add_command(Command.simple("fail", Const(True), 1.0, {"count": Const(1)}))
        system.add_module(component)
        system.add_module(monitor)
        system.add_label("recorded", Var("count").eq(Const(1)))
        result = build_ctmc(system)
        assert result.num_states == 2
        assert time_bounded_reachability(result.chain, "recorded", 4.0) == pytest.approx(
            1.0 - np.exp(-0.25 * 4.0), abs=1e-9
        )

    def test_blocked_synchronisation_produces_no_transition(self):
        system = ModulesFile()
        left = Module("left")
        left.add_variable(VariableDeclaration.boolean("go", True))
        left.add_command(Command.simple("sync", Var("go"), 1.0, {"go": Const(False)}))
        right = Module("right")
        right.add_variable(VariableDeclaration.boolean("ready", False))
        right.add_command(Command.simple("sync", Var("ready"), 1.0, {"ready": Const(False)}))
        system.add_module(left)
        system.add_module(right)
        result = build_ctmc(system)
        assert result.num_states == 1  # the action is blocked forever
        assert result.num_transitions == 0

    def test_state_space_limit(self):
        system = ModulesFile()
        system.add_module(repairable_component("a", 0.1, 1.0))
        system.add_module(repairable_component("b", 0.1, 1.0))
        with pytest.raises(ModulesError):
            build_ctmc(system, max_states=2)

    def test_variable_out_of_range_detected(self):
        system = ModulesFile()
        module = Module("m")
        module.add_variable(VariableDeclaration.integer("x", 0, 1, 0))
        module.add_command(Command.simple("", Const(True), 1.0, {"x": Var("x") + Const(1)}))
        system.add_module(module)
        with pytest.raises(ModulesError):
            build_ctmc(system)

    def test_rewards_and_initial_override(self):
        system = ModulesFile()
        system.add_module(repairable_component("a", 0.1, 1.0))
        rewards = RewardStructureDefinition("cost")
        rewards.add_state_reward(~Var("a_up"), 3.0)
        system.add_rewards(rewards)
        model = build_reward_model(system)
        assert model.reward_names == ("cost",)
        # Start in the failed state via an initial override.
        failed_start = system.with_initial_state({"a_up": False})
        result = build_ctmc(failed_start)
        assert result.valuation(0)["a_up"] is False

    def test_missing_rewards_raise(self):
        system = ModulesFile()
        system.add_module(repairable_component("a", 0.1, 1.0))
        with pytest.raises(ModulesError):
            build_reward_model(system)

    def test_exploration_result_lookup(self):
        system = ModulesFile()
        system.add_module(repairable_component("a", 0.1, 1.0))
        result = build_ctmc(system)
        index = result.state_index({"a_up": False})
        assert result.valuation(index) == {"a_up": False}
