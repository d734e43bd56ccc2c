"""The simplified water-treatment facility of the paper (Section 4).

The facility consists of two independent process lines:

* **Line 1** — three softening tanks, three sand filters, one reservoir and
  four pumps of which three are needed for normal service ("3+1"),
* **Line 2** — three softening tanks, two sand filters, one reservoir and
  three pumps of which two are needed ("2+1").

Component parameters (Figure 2 of the paper; the true rates are classified,
these are the sanitised values):

================  ======  ======
component          MTTF    MTTR
================  ======  ======
pump                500 h    1 h
softening tank     2000 h    5 h
sand filter        1000 h  100 h
reservoir          6000 h   12 h
================  ======  ======

The assignment of these values to the component classes is confirmed by the
paper's own numbers: with dedicated repair they reproduce the published
line availabilities (Table 2) to six significant digits.

A line is *fully operational* (and otherwise "down", the criterion used for
reliability and availability) when all softening tanks, all sand filters and
the reservoir are up and at least the required number of pumps is up.  The
derived service tree yields the service intervals reported in Section 5:
three for Line 1 and four for Line 2.

Each line has a single repair unit covering all its components; the
experiments sweep that unit over the strategies DED, FRF-1/2 and FFF-1/2.
Component priorities (used to order the repair queue of a disaster state)
follow the physical water flow: reservoir first, then pumps, sand filters
and softening tanks — without the reservoir no water can be delivered at
all, which is the ordering the paper's Line 2 discussion relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arcade.components import BasicComponent
from repro.arcade.costs import CostModel
from repro.arcade.fault_tree import BasicEvent, FaultTree, KOfN, Or
from repro.arcade.model import ArcadeModel, Disaster
from repro.arcade.repair import RepairStrategy, RepairUnit
from repro.arcade.spares import SpareManagementUnit

# ---------------------------------------------------------------------------
# component parameters (Figure 2)
# ---------------------------------------------------------------------------
PUMP_MTTF, PUMP_MTTR = 500.0, 1.0
SOFTENER_MTTF, SOFTENER_MTTR = 2000.0, 5.0
SAND_FILTER_MTTF, SAND_FILTER_MTTR = 1000.0, 100.0
RESERVOIR_MTTF, RESERVOIR_MTTR = 6000.0, 12.0

#: Repair priorities for disaster (GOOD) states: smaller = repaired first.
RESERVOIR_PRIORITY = 1
PUMP_PRIORITY = 2
SAND_FILTER_PRIORITY = 3
SOFTENER_PRIORITY = 4

LINE1 = "line1"
LINE2 = "line2"

DISASTER_1 = "disaster1"
DISASTER_2 = "disaster2"


@dataclass(frozen=True)
class StrategyConfiguration:
    """A repair configuration of the sweep: strategy plus crew count."""

    strategy: RepairStrategy
    crews: int

    @property
    def label(self) -> str:
        """The paper's abbreviation, e.g. ``"FRF-2"`` or ``"DED"``."""
        return self.strategy.short_name(self.crews)


#: The five configurations compared throughout the paper's evaluation.
PAPER_STRATEGIES: tuple[StrategyConfiguration, ...] = (
    StrategyConfiguration(RepairStrategy.DEDICATED, 1),
    StrategyConfiguration(RepairStrategy.FASTEST_REPAIR_FIRST, 1),
    StrategyConfiguration(RepairStrategy.FASTEST_REPAIR_FIRST, 2),
    StrategyConfiguration(RepairStrategy.FASTEST_FAILURE_FIRST, 1),
    StrategyConfiguration(RepairStrategy.FASTEST_FAILURE_FIRST, 2),
)


# ---------------------------------------------------------------------------
# component construction helpers
# ---------------------------------------------------------------------------
def _pumps(line: str, count: int) -> list[BasicComponent]:
    return [
        BasicComponent(
            name=f"{line}_pump{index}",
            mttf=PUMP_MTTF,
            mttr=PUMP_MTTR,
            component_class="pump",
            priority=PUMP_PRIORITY,
        )
        for index in range(1, count + 1)
    ]


def _softeners(line: str, count: int) -> list[BasicComponent]:
    return [
        BasicComponent(
            name=f"{line}_softener{index}",
            mttf=SOFTENER_MTTF,
            mttr=SOFTENER_MTTR,
            component_class="softening_tank",
            priority=SOFTENER_PRIORITY,
        )
        for index in range(1, count + 1)
    ]


def _sand_filters(line: str, count: int) -> list[BasicComponent]:
    return [
        BasicComponent(
            name=f"{line}_sandfilter{index}",
            mttf=SAND_FILTER_MTTF,
            mttr=SAND_FILTER_MTTR,
            component_class="sand_filter",
            priority=SAND_FILTER_PRIORITY,
        )
        for index in range(1, count + 1)
    ]


def _reservoir(line: str) -> BasicComponent:
    return BasicComponent(
        name=f"{line}_reservoir",
        mttf=RESERVOIR_MTTF,
        mttr=RESERVOIR_MTTR,
        component_class="reservoir",
        priority=RESERVOIR_PRIORITY,
    )


def _build_line(
    line: str,
    softener_count: int,
    sand_filter_count: int,
    pump_count: int,
    pumps_required: int,
    strategy: RepairStrategy | str,
    crews: int,
    disasters: tuple[Disaster, ...],
) -> ArcadeModel:
    softeners = _softeners(line, softener_count)
    sand_filters = _sand_filters(line, sand_filter_count)
    reservoir = _reservoir(line)
    pumps = _pumps(line, pump_count)
    components = (*softeners, *sand_filters, reservoir, *pumps)

    component_names = [component.name for component in components]
    repair_unit = RepairUnit(
        name=f"{line}_repair",
        strategy=strategy if isinstance(strategy, RepairStrategy) else RepairStrategy.from_string(strategy),
        components=tuple(component_names),
        crews=crews,
    )
    spare_unit = SpareManagementUnit(
        name=f"{line}_pumps",
        components=tuple(pump.name for pump in pumps),
        required=pumps_required,
    )

    # The line is down when it is not fully operational: any softener, any
    # sand filter or the reservoir failed, or more pumps failed than there
    # are spares.  (KOfN(1, ...) is a plain OR written as a voting gate so
    # that the derived service tree averages over the phase, see
    # repro.arcade.fault_tree.)
    fault_tree = FaultTree(
        Or(
            KOfN(1, [BasicEvent(component.name) for component in softeners]),
            KOfN(1, [BasicEvent(component.name) for component in sand_filters]),
            BasicEvent(reservoir.name),
            KOfN(
                pump_count - pumps_required + 1,
                [BasicEvent(component.name) for component in pumps],
            ),
        ),
        name=f"{line}_down",
    )

    return ArcadeModel(
        name=f"water_treatment_{line}",
        components=components,
        repair_units=(repair_unit,),
        spare_units=(spare_unit,),
        fault_tree=fault_tree,
        cost_model=CostModel.paper_default(),
        disasters=disasters,
    )


# ---------------------------------------------------------------------------
# public line builders
# ---------------------------------------------------------------------------
def build_line1(
    strategy: RepairStrategy | str = RepairStrategy.DEDICATED,
    crews: int = 1,
) -> ArcadeModel:
    """Line 1: 3 softening tanks, 3 sand filters, 1 reservoir, 3+1 pumps.

    Disaster 1 ("all pumps in the system fail") restricted to this line means
    all four pumps are down.
    """
    disaster1 = Disaster(
        DISASTER_1,
        tuple(f"{LINE1}_pump{index}" for index in range(1, 5)),
        description="All pumps of the line have failed.",
    )
    return _build_line(
        LINE1,
        softener_count=3,
        sand_filter_count=3,
        pump_count=4,
        pumps_required=3,
        strategy=strategy,
        crews=crews,
        disasters=(disaster1,),
    )


def build_line2(
    strategy: RepairStrategy | str = RepairStrategy.DEDICATED,
    crews: int = 1,
) -> ArcadeModel:
    """Line 2: 3 softening tanks, 2 sand filters, 1 reservoir, 2+1 pumps.

    Disaster 1 restricted to this line fails all three pumps; Disaster 2
    fails two pumps, one softener, one sand filter and the reservoir
    (Section 5 of the paper).
    """
    disaster1 = Disaster(
        DISASTER_1,
        tuple(f"{LINE2}_pump{index}" for index in range(1, 4)),
        description="All pumps of the line have failed.",
    )
    disaster2 = Disaster(
        DISASTER_2,
        (
            f"{LINE2}_pump1",
            f"{LINE2}_pump2",
            f"{LINE2}_softener1",
            f"{LINE2}_sandfilter1",
            f"{LINE2}_reservoir",
        ),
        description=(
            "Two pumps, one softener, one sand filter and the reservoir have failed."
        ),
    )
    return _build_line(
        LINE2,
        softener_count=3,
        sand_filter_count=2,
        pump_count=3,
        pumps_required=2,
        strategy=strategy,
        crews=crews,
        disasters=(disaster1, disaster2),
    )


def build_line(
    line: str,
    strategy: RepairStrategy | str = RepairStrategy.DEDICATED,
    crews: int = 1,
) -> ArcadeModel:
    """Build ``"line1"`` or ``"line2"`` with the given repair configuration."""
    if line == LINE1:
        return build_line1(strategy, crews)
    if line == LINE2:
        return build_line2(strategy, crews)
    raise ValueError(f"unknown line {line!r}; expected {LINE1!r} or {LINE2!r}")
