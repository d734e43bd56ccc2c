"""Tests for the ArcadeModel container, spare units and the direct state-space generator."""

from fractions import Fraction

import numpy as np
import pytest

from repro.arcade import (
    ArcadeModel,
    BasicComponent,
    BasicEvent,
    FaultTree,
    KOfN,
    Or,
    RepairStrategy,
    RepairUnit,
    SpareManagementUnit,
    build_state_space,
)
from repro.arcade.components import ArcadeModelError
from repro.arcade.model import Disaster, FailedSetTable
from repro.arcade.statespace import ArcadeSemantics
from repro.casestudy.experiments import line_state_space
from repro.casestudy.facility import LINE2, PAPER_STRATEGIES, StrategyConfiguration, build_line
from repro.ctmc import steady_state_distribution
from helpers import make_mini_model, make_spare_model


class TestSpareManagementUnit:
    def test_active_members_follow_preference_order(self):
        unit = SpareManagementUnit("pumps", ("p1", "p2", "p3"), required=2)
        assert unit.active_members({"p1", "p2", "p3"}) == ("p1", "p2")
        assert unit.active_members({"p2", "p3"}) == ("p2", "p3")
        assert unit.spares == 1
        assert unit.delivers_service({"p1", "p3"})
        assert not unit.delivers_service({"p3"})

    def test_dormant_rate_applied_to_standby_member(self):
        unit = SpareManagementUnit("pumps", ("p1", "p2"), required=1)
        cold = BasicComponent("p2", 100.0, 1.0, dormancy_factor=0.0)
        assert unit.failure_rate(cold, {"p1", "p2"}) == 0.0
        assert unit.failure_rate(cold, {"p2"}) == pytest.approx(0.01)

    def test_invalid_required_count(self):
        with pytest.raises(ArcadeModelError):
            SpareManagementUnit("pumps", ("p1",), required=2)

    def test_unknown_member_query(self):
        unit = SpareManagementUnit("pumps", ("p1",), required=1)
        with pytest.raises(ArcadeModelError):
            unit.is_active("p9", {"p1"})


class TestModelValidation:
    def test_component_covered_twice_rejected(self):
        components = (BasicComponent("a", 1.0, 1.0), BasicComponent("b", 1.0, 1.0))
        units = (
            RepairUnit("u1", "fcfs", ("a",)),
            RepairUnit("u2", "fcfs", ("a", "b")),
        )
        with pytest.raises(ArcadeModelError):
            ArcadeModel("m", components, units)

    def test_unknown_component_in_fault_tree_rejected(self):
        with pytest.raises(ArcadeModelError):
            ArcadeModel(
                "m",
                (BasicComponent("a", 1.0, 1.0),),
                fault_tree=FaultTree(BasicEvent("ghost")),
            )

    def test_unknown_component_in_disaster_rejected(self):
        with pytest.raises(ArcadeModelError):
            ArcadeModel(
                "m",
                (BasicComponent("a", 1.0, 1.0),),
                disasters=(Disaster("d", ("ghost",)),),
            )

    def test_lookups(self, mini_model):
        assert mini_model.component("alpha").mttf == 100.0
        with pytest.raises(ArcadeModelError):
            mini_model.component("ghost")
        assert mini_model.repair_unit_of("alpha").name == "unit"
        assert mini_model.spare_unit_of("alpha") is None
        assert mini_model.disaster("everything").failed_components == ("alpha", "beta", "gamma")

    def test_with_repair_strategy_sweeps(self, mini_model):
        changed = mini_model.with_repair_strategy("dedicated")
        assert changed.strategy_label() == "DED"
        assert mini_model.strategy_label() == "FRF-1"
        two_crews = mini_model.with_repair_strategy("fff", crews=2)
        assert two_crews.strategy_label() == "FFF-2"

    def test_service_level_via_model(self, mini_model):
        assert mini_model.service_level([]) == 1
        assert mini_model.service_level(["alpha"]) < 1

    def test_state_cost_rate(self, mini_model):
        # One component failed (3/h) and the single crew busy (0/h idle cost saved).
        cost = mini_model.state_cost_rate(["alpha"], {"unit": 1})
        assert cost == pytest.approx(3.0)
        cost_idle = mini_model.state_cost_rate([], {"unit": 0})
        assert cost_idle == pytest.approx(1.0)


class TestStateSpace:
    def test_mini_model_single_crew_counts(self, mini_space):
        # 3 components, FRF with distinct repair rates: queue order is determined
        # by the failed set, so the reachable space is 2^3 = 8 states.
        assert mini_space.num_states == 8
        assert mini_space.with_repairs is True

    def test_dedicated_equals_power_set(self):
        space = build_state_space(make_mini_model("dedicated"))
        assert space.num_states == 8
        assert space.num_transitions == 3 * 8

    def test_reliability_space_has_no_repairs(self, mini_model):
        space = build_state_space(mini_model, with_repairs=False)
        # Without repairs, transitions only remove components: 3*4 + ... = 12.
        assert space.num_transitions == 12
        # The all-failed state is absorbing.
        distribution = steady_state_distribution(space.chain)
        # FRF policy order: gamma (MTTR 1) before alpha (2) before beta (5).
        all_failed = space.state_index(((("gamma", "alpha", "beta"),), ()))
        assert distribution[all_failed] == pytest.approx(1.0)

    def test_labels_and_service_levels(self, mini_space):
        chain = mini_space.chain
        assert chain.label_mask("operational").sum() == 1  # only the all-up state
        assert chain.label_mask("down").sum() == 7
        assert mini_space.service_levels[0] == 1
        assert set(mini_space.service_level_array()) <= {0.0, 1.0, 1 / 3, 2 / 3}

    def test_states_with_service_at_least(self, mini_space):
        everything = mini_space.states_with_service_at_least(0.0)
        assert len(everything) == mini_space.num_states
        full = mini_space.states_with_service_at_least(1)
        assert len(full) == 1

    def test_disaster_state_lookup(self, mini_space):
        index = mini_space.disaster_state("everything")
        assert mini_space.failed_components(index) == {"alpha", "beta", "gamma"}
        distribution = mini_space.initial_distribution_for_disaster("everything")
        assert distribution[index] == 1.0
        good_chain = mini_space.chain_for_disaster("everything")
        assert good_chain.initial_state == index

    def test_cost_reward_structure(self, mini_space):
        rewards = mini_space.reward_model.reward_structure("cost").state_rewards
        # All-up state: crew idle -> cost 1; all-down state: 9 (components) + 0 (busy crew).
        assert rewards[0] == pytest.approx(1.0)
        all_down = mini_space.disaster_state("everything")
        assert rewards[all_down] == pytest.approx(9.0)

    def test_max_states_limit(self, mini_model):
        with pytest.raises(ArcadeModelError):
            build_state_space(mini_model, max_states=3)

    def test_unknown_state_lookup_raises(self, mini_space):
        with pytest.raises(ArcadeModelError):
            mini_space.state_index(((("ghost",),), ()))

    def test_uncovered_components_stay_failed(self):
        components = (BasicComponent("a", 10.0, 1.0), BasicComponent("b", 20.0, 2.0))
        model = ArcadeModel(
            "partial",
            components,
            repair_units=(RepairUnit("ru", "fcfs", ("a",)),),
            fault_tree=FaultTree(Or(BasicEvent("a"), BasicEvent("b"))),
        )
        space = build_state_space(model)
        # b is never repaired: in the long run it is failed with probability 1.
        distribution = steady_state_distribution(space.chain)
        b_failed = sum(
            probability
            for index, probability in enumerate(distribution)
            if "b" in space.failed_components(index)
        )
        assert b_failed == pytest.approx(1.0, abs=1e-9)


class TestSpareStateSpace:
    def test_cold_spare_cannot_fail_while_dormant(self):
        space = build_state_space(make_spare_model(dormancy=0.0))
        # From the all-up state, pump2 (the dormant spare) cannot fail: only
        # pump1 and the valve have outgoing failure transitions.
        assert len(space.chain.successors(0)) == 2

    def test_hot_spare_can_fail_while_dormant(self):
        space = build_state_space(make_spare_model(dormancy=1.0))
        assert len(space.chain.successors(0)) == 3

    def test_cold_spare_improves_availability(self):
        cold = build_state_space(make_spare_model(dormancy=0.0))
        hot = build_state_space(make_spare_model(dormancy=1.0))
        availability_cold = float(
            steady_state_distribution(cold.chain)[cold.chain.label_mask("operational")].sum()
        )
        availability_hot = float(
            steady_state_distribution(hot.chain)[hot.chain.label_mask("operational")].sum()
        )
        assert availability_cold > availability_hot


#: Spaces whose every state is checked against the model's own queries.
ORACLE_SPACES = {
    "mini": lambda: build_state_space(make_mini_model()),
    "spare": lambda: build_state_space(make_spare_model(dormancy=0.5)),
    **{
        f"line2-{configuration.label}": (
            lambda configuration=configuration: line_state_space(LINE2, configuration)
        )
        for configuration in PAPER_STRATEGIES
    },
    "line2-reliability": lambda: line_state_space(
        LINE2, StrategyConfiguration(RepairStrategy.DEDICATED, 1), with_repairs=False
    ),
}


class TestSharedSemantics:
    """A state means what its failed set means, and each set is evaluated once."""

    @pytest.mark.parametrize("name", list(ORACLE_SPACES))
    def test_every_state_matches_the_model_alone(self, name):
        space = ORACLE_SPACES[name]()
        model = space.model
        tree = model.effective_service_tree()
        masks = {label: space.chain.label_mask(label) for label in space.chain.label_names}
        costs = space.reward_model.reward_structure("cost").state_rewards
        for index, (queues, _uncovered) in enumerate(space.states):
            failed = space.failed_components(index)
            level = tree.service_level(n for n in model.component_names if n not in failed)
            expected = {"down" if model.is_down(failed) else "operational"}
            if level == 0:
                expected.add("no_service")
            if level == 1:
                expected.add("full_service")
            assert {label for label, mask in masks.items() if mask[index]} == expected
            assert space.service_levels[index] == level
            busy = {
                unit.name: unit.busy_crews(queue)
                for unit, queue in zip(model.repair_units, queues)
            }
            assert costs[index] == model.state_cost_rate(failed, busy)

    def test_successors_list_failures_then_repairs_in_fixed_order(self):
        # Seeded simulations draw from this list, so its order is pinned:
        # failures in model order, then repairs per unit in service order.
        a, b, c, d = (
            BasicComponent(name, 10.0 * i, float(i)) for i, name in enumerate("abcd", 1)
        )
        model = ArcadeModel(
            "order",
            (a, b, c, d),
            repair_units=(
                RepairUnit("ru1", "fcfs", ("a", "b"), crews=2),
                RepairUnit("ru2", "fcfs", ("c",)),
            ),
            fault_tree=FaultTree(Or(*(BasicEvent(name) for name in "abcd"))),
        )
        semantics = ArcadeSemantics(model)
        up = ((), ()), ()
        assert semantics.successors(up) == [
            (a.failure_rate, ((("a",), ()), ())),
            (b.failure_rate, ((("b",), ()), ())),
            (c.failure_rate, (((), ("c",)), ())),
            (d.failure_rate, (((), ()), ("d",))),
        ]
        failed = (("b", "a"), ("c",)), ()
        assert semantics.successors(failed) == [
            (d.failure_rate, ((("b", "a"), ("c",)), ("d",))),
            (b.repair_rate, ((("a",), ("c",)), ())),
            (a.repair_rate, ((("b",), ("c",)), ())),
            (c.repair_rate, ((("b", "a"), ()), ())),
        ]

    def test_each_failed_set_is_evaluated_once_per_build(self, monkeypatch):
        batches: list[np.ndarray] = []
        add = FailedSetTable.add

        def counted(table, failed):
            batches.append(failed.copy())
            return add(table, failed)

        monkeypatch.setattr(FailedSetTable, "add", counted)
        space = build_state_space(build_line(LINE2, RepairStrategy.FASTEST_REPAIR_FIRST, 1))
        # 2,560 states over the 2**9 failed sets of Line 2's nine components.
        assert space.num_states == 2560
        evaluated = np.concatenate(batches)
        assert len(evaluated) == 512
        assert len(np.unique(evaluated, axis=0)) == 512
