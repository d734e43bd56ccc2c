"""The array state-space build and the simulator against the tuple-form reference.

:mod:`arcade_reference` keeps the state-by-state ``successors`` loop, the
breadth-first build and the sampling loop that the array step replaced, and
the scalar failed-set evaluation that the column table replaced.  Over
generated models the two must agree exactly: the same CSR arrays, labels,
costs, service levels, states and disaster states, the same successors of
every state, the same seeded trajectories, and the same rates, verdict,
service level and costs of every failed set.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arcade import (
    And,
    ArcadeModel,
    BasicComponent,
    BasicEvent,
    CostModel,
    FaultTree,
    KOfN,
    Or,
    RepairStrategy,
    RepairUnit,
    ServiceTree,
    SpareManagementUnit,
    build_state_space,
)
from repro.arcade.components import ArcadeModelError
from repro.arcade.fault_tree import (
    AverageService,
    CappedFractionService,
    ComponentService,
    MinService,
)
from repro.arcade.model import Disaster, FailedSetTable
from repro.arcade.statespace import ArcadeSemantics
from repro.casestudy.experiments import line_state_space
from repro.casestudy.facility import (
    LINE2,
    PAPER_STRATEGIES,
    StrategyConfiguration,
    build_line,
)
from repro.sim import ArcadeSimulator

from arcade_reference import (
    ReferenceFailedSets,
    ReferenceSemantics,
    reference_build,
    reference_simulate,
)
from helpers import make_mini_model, make_spare_model

#: A capped-fraction requirement whose denominators pass 2**63.
HUGE_REQUIRED = 10**20


def fault_trees(names: list[str], depth: int = 3) -> st.SearchStrategy:
    """Or/And/KOfN gates over basic events of ``names``, nested at most ``depth`` deep."""
    leaves = st.sampled_from(names).map(BasicEvent)
    if depth == 0:
        return leaves
    children = st.lists(fault_trees(names, depth - 1), min_size=1, max_size=4)
    return st.one_of(
        leaves,
        children.map(Or),
        children.map(And),
        children.flatmap(lambda nodes: st.integers(1, len(nodes)).map(lambda k: KOfN(k, nodes))),
    )


def service_nodes(names: list[str], depth: int = 3) -> st.SearchStrategy:
    """Min/average/capped gates over components of ``names``, nested at most ``depth`` deep."""
    leaves = st.sampled_from(names).map(ComponentService)
    if depth == 0:
        return leaves
    children = st.lists(service_nodes(names, depth - 1), min_size=1, max_size=4).map(tuple)
    return st.one_of(
        leaves,
        children.map(MinService),
        children.map(AverageService),
        st.builds(
            CappedFractionService, children, st.integers(1, 5) | st.just(HUGE_REQUIRED)
        ),
    )


#: Cost rates whose sums depend on the order they are added in.
COST_RATES = st.sampled_from([0.0, 0.1, 0.25, 0.3, 0.7, 1.0, 3.0])


@st.composite
def arcade_models(draw, max_components: int = 5) -> ArcadeModel:
    """2 to ``max_components`` components with tied and distinct rates, 1–3
    repair units of any strategy, components no unit covers, maybe a spare
    unit, a nested fault tree and maybe an explicit service tree."""
    count = draw(st.integers(2, max_components))
    components = [
        BasicComponent(
            f"c{index}",
            mttf=draw(st.sampled_from([10.0, 20.0, 50.0])),
            mttr=draw(st.sampled_from([1.0, 2.0, 5.0])),
            priority=draw(st.integers(0, 2)),
            dormancy_factor=draw(st.sampled_from([0.0, 0.5, 1.0])),
        )
        for index in range(count)
    ]
    names = [component.name for component in components]
    units_wanted = draw(st.integers(1, 3))
    owners = [draw(st.integers(-1, units_wanted - 1)) for _ in names]
    if max(owners) < 0:
        owners[0] = 0
    units = tuple(
        RepairUnit(
            f"ru{owner}",
            draw(st.sampled_from(list(RepairStrategy))),
            tuple(name for name, unit in zip(names, owners) if unit == owner),
            crews=draw(st.integers(1, 3)),
            preemptive=draw(st.booleans()),
        )
        for owner in sorted(set(owners) - {-1})
    )
    spares = ()
    if draw(st.booleans()):
        members = draw(st.lists(st.sampled_from(names), min_size=2, max_size=3, unique=True))
        required = draw(st.integers(1, len(members) - 1))
        spares = (SpareManagementUnit("smu", tuple(members), required),)
    fault_tree = FaultTree(draw(fault_trees(names)))
    service_tree = draw(st.none() | service_nodes(names).map(ServiceTree))
    disasters = tuple(
        Disaster(f"d{index}", tuple(failed))
        for index, failed in enumerate(
            draw(
                st.lists(
                    st.lists(st.sampled_from(names), min_size=1, unique=True),
                    min_size=1,
                    max_size=2,
                )
            )
        )
    )
    cost_model = CostModel(
        component_down_cost=draw(COST_RATES),
        component_up_cost=draw(COST_RATES),
        crew_idle_cost=draw(COST_RATES),
        crew_busy_cost=draw(COST_RATES),
        component_down_overrides={names[0]: 0.1},
    )
    return ArcadeModel(
        "generated",
        tuple(components),
        units,
        spares,
        fault_tree,
        cost_model=cost_model,
        disasters=disasters,
        service_tree=service_tree,
    )


def assert_same_space(space, reference) -> None:
    """Everything a request or a test reads from the two builds is identical."""
    mine, theirs = space.chain.rate_matrix, reference.chain.rate_matrix
    for name in ("indptr", "indices", "data"):
        assert getattr(mine, name).dtype == getattr(theirs, name).dtype
        assert getattr(mine, name).tobytes() == getattr(theirs, name).tobytes()
    assert space.chain.label_names == reference.chain.label_names
    for name in reference.chain.label_names:
        np.testing.assert_array_equal(
            space.chain.label_mask(name), reference.chain.label_mask(name)
        )
    cost = space.reward_model.reward_structure("cost").state_rewards
    assert cost.tobytes() == reference.reward_model.reward_structure("cost").state_rewards.tobytes()
    assert space.service_levels == reference.service_levels
    assert space.states == reference.states
    assert space.chain.fingerprint == reference.chain.fingerprint
    assert space.chain.content_key == reference.chain.content_key
    for disaster in (*space.model.disasters, *(d.name for d in space.model.disasters)):
        assert disaster_index(space, disaster) == disaster_index(reference, disaster)
    for index, state in enumerate(reference.states):
        assert space.state_index(state) == index


def disaster_index(space, disaster) -> int | None:
    """The disaster's state index, or ``None`` if the build never reached it."""
    try:
        return space.disaster_state(disaster)
    except (ArcadeModelError, KeyError):
        return None


def assert_same_trajectories(model, with_repairs, seed, horizon, disasters) -> None:
    """Seeded runs of the simulator and of the reference loop coincide."""
    simulator = ArcadeSimulator(model, with_repairs=with_repairs, seed=seed)
    semantics = ReferenceSemantics(model, with_repairs)
    rng = np.random.default_rng(seed)
    for disaster in disasters:
        run = simulator.simulate(horizon, disaster=disaster)
        times, states = reference_simulate(semantics, rng, horizon, disaster)
        assert run.times == times
        assert run.states == states


class TestArrayBuildMatchesReference:
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(model=arcade_models(), with_repairs=st.booleans(), seed=st.integers(0, 2**16))
    def test_generated_models(self, model, with_repairs, seed):
        space = build_state_space(model, with_repairs=with_repairs)
        reference = reference_build(model, with_repairs=with_repairs)
        assert_same_space(space, reference)

        semantics = ArcadeSemantics(model, with_repairs)
        expected = ReferenceSemantics(model, with_repairs)
        for state in reference.states:
            assert semantics.successors(state) == expected.successors(state)
            set_id = semantics.set_id(state)
            assert semantics.table.cost[set_id] == expected.cost_rate(state)
        # Rows and tuple states key a failed set alike: each is evaluated once.
        table = semantics.table
        assert len(np.unique(table.failed, axis=0)) == len(table)

        disasters = [None, *(disaster.name for disaster in model.disasters)]
        assert_same_trajectories(model, with_repairs, seed, 50.0, disasters)

    @pytest.mark.parametrize(
        "model",
        [
            make_mini_model(),
            make_mini_model("fcfs", crews=2, preemptive=False),
            make_mini_model("priority", preemptive=False),
            make_spare_model(dormancy=0.5),
            build_line(LINE2, RepairStrategy.FASTEST_REPAIR_FIRST, 2),
        ],
        ids=["mini-frf", "mini-fcfs2-nonpreemptive", "mini-prio-nonpreemptive", "spare", "line2-frf2"],
    )
    def test_seeded_simulations_follow_the_reference(self, model):
        disasters = [None, *(disaster.name for disaster in model.disasters)] * 3
        assert_same_trajectories(model, True, 2010, 300.0, disasters)
        assert_same_trajectories(model, False, 7, 300.0, disasters[:2])

    @pytest.mark.parametrize(
        "configuration, with_repairs",
        [(configuration, True) for configuration in PAPER_STRATEGIES]
        + [(StrategyConfiguration(RepairStrategy.DEDICATED, 1), False)],
        ids=lambda value: getattr(value, "label", None) or ("repairs" if value else "no-repairs"),
    )
    def test_line2_spaces(self, configuration, with_repairs):
        space = line_state_space(LINE2, configuration, with_repairs=with_repairs)
        assert_same_space(space, reference_build(space.model, with_repairs=with_repairs))

    def test_max_states_limit_is_exact(self):
        model = make_mini_model("fcfs")
        states = build_state_space(model).num_states
        assert build_state_space(model, max_states=states).num_states == states
        with pytest.raises(ArcadeModelError):
            build_state_space(model, max_states=states - 1)
        with pytest.raises(ArcadeModelError):
            reference_build(model, max_states=states - 1)

    def test_model_without_repair_units(self):
        model = ArcadeModel(
            "unrepaired",
            (BasicComponent("a", 10.0, 1.0), BasicComponent("b", 5.0, 1.0)),
            fault_tree=FaultTree(Or(BasicEvent("a"), BasicEvent("b"))),
        )
        assert_same_space(build_state_space(model), reference_build(model))


def every_failed_set(model: ArcadeModel) -> np.ndarray:
    """One row per failed set of ``model``: row ``m`` holds the bits of ``m``."""
    count = len(model.components)
    return (np.arange(2**count)[:, None] >> np.arange(count) & 1) == 1


def assert_table_matches_reference(table: FailedSetTable, model: ArcadeModel) -> None:
    """Every column of every row equals the scalar evaluation of its failed set."""
    reference = ReferenceFailedSets(model)
    names = model.component_names
    levels = []
    for set_id, row in enumerate(table.failed.tolist()):
        failed = frozenset(compress(names, row))
        expected = reference[failed]
        rates = dict(expected.failure_rates)
        assert table.rates[set_id].tolist() == [rates.get(name, 0.0) for name in names]
        if expected.down is None:
            assert table.down is None
        else:
            assert table.down[set_id] == expected.down
        level = table.levels[table.level_ids[set_id]]
        assert type(level) is Fraction and level == expected.service_level
        levels.append(level)
        assert table.component_cost[set_id] == expected.component_cost
        busy = {
            unit.name: unit.busy_crews([name for name in unit.components if name in failed])
            for unit in model.repair_units
        }
        assert table.cost[set_id] == model.state_cost_rate(failed, busy)
    # Levels are numbered by first appearance over the ids.
    assert table.levels == list(dict.fromkeys(levels))


class TestFailedSetTable:
    """The column table against the scalar reference, over every failed set."""

    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(model=arcade_models(max_components=8), data=st.data())
    def test_columns_equal_the_scalar_reference(self, model, data):
        # Any order and any batches, as frontiers add them.
        failed = every_failed_set(model)
        order = data.draw(st.permutations(range(len(failed))))
        cuts = sorted(data.draw(st.lists(st.integers(0, len(failed)), max_size=3)))
        table = FailedSetTable(model)
        for batch in np.split(failed[order], cuts):
            table.add(batch)
        assert len(table) == len(failed)
        assert_table_matches_reference(table, model)

    def test_levels_stay_exact_past_int64(self):
        # A capped fraction needing 10**20 members and an average above it:
        # the tree's denominator is 3 * 10**20, past any machine integer.
        names = [f"c{index}" for index in range(4)]
        model = ArcadeModel(
            "huge",
            tuple(BasicComponent(name, 10.0, 1.0) for name in names),
            (RepairUnit("ru", "fcfs", tuple(names), crews=2),),
            fault_tree=FaultTree(Or(*map(BasicEvent, names))),
            service_tree=ServiceTree(
                AverageService(
                    (
                        CappedFractionService(
                            tuple(map(ComponentService, names[:3])), HUGE_REQUIRED
                        ),
                        MinService((ComponentService("c3"), ComponentService("c0"))),
                        ComponentService("c1"),
                    )
                )
            ),
        )
        table = FailedSetTable(model)
        table.add(every_failed_set(model))
        assert table.denominator == 3 * HUGE_REQUIRED
        # Only c0 up: (1/10**20 + 0 + 0) / 3.
        assert table.levels[table.level_ids[0b1110]] == Fraction(1, 3 * HUGE_REQUIRED)
        assert_table_matches_reference(table, model)


class TestEncodingWidths:
    """A model wider than the encoding is rejected or gets a wider encoding."""

    def test_unit_wider_than_a_queue_slot_is_rejected(self):
        components = tuple(BasicComponent(f"c{index}", 10.0, 1.0) for index in range(256))
        model = ArcadeModel(
            "wide",
            components,
            repair_units=(RepairUnit("ru", "fcfs", tuple(c.name for c in components)),),
            fault_tree=FaultTree(Or(*(BasicEvent(c.name) for c in components))),
        )
        with pytest.raises(ArcadeModelError, match="queue slot"):
            build_state_space(model)
        with pytest.raises(ArcadeModelError, match="queue slot"):
            ArcadeSimulator(model)

    def test_masks_grow_past_64_components(self):
        # 65 cold-standby pumps that nobody repairs, one after the other, and
        # a valve with its own crew: 66 components, so the failed-set mask
        # takes 9 bytes and the uncovered bitmask 65 bits.
        pumps = tuple(
            BasicComponent(f"pump{index:02d}", 100.0, 4.0, dormancy_factor=0.0)
            for index in range(65)
        )
        valve = BasicComponent("valve", 400.0, 8.0)
        model = ArcadeModel(
            "many-pumps",
            (valve, *pumps),
            repair_units=(RepairUnit("ru", "dedicated", ("valve",)),),
            spare_units=(SpareManagementUnit("pumps", tuple(p.name for p in pumps), 1),),
            fault_tree=FaultTree(Or(BasicEvent("valve"), KOfN(65, [BasicEvent(p.name) for p in pumps]))),
            disasters=(Disaster("half", tuple(p.name for p in pumps[:33])),),
        )
        space = build_state_space(model)
        assert space.num_states == 2 * 66
        assert space.encoding.mask_bytes == 9
        assert_same_space(space, reference_build(model))
        assert_same_trajectories(model, True, 3, 5_000.0, [None, "half"])
