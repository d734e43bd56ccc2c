"""Shared model builders and checks used by fixtures and tests alike."""

from __future__ import annotations

import re

from repro.arcade import (
    ArcadeModel,
    BasicComponent,
    BasicEvent,
    FaultTree,
    KOfN,
    Or,
    RepairUnit,
    SpareManagementUnit,
)
from repro.arcade.model import Disaster


def make_mini_model(
    strategy: str = "fastest_repair_first",
    crews: int = 1,
    preemptive: bool = True,
) -> ArcadeModel:
    """A three-component model small enough for exhaustive cross-checks."""
    components = (
        BasicComponent("alpha", mttf=100.0, mttr=2.0, priority=2),
        BasicComponent("beta", mttf=50.0, mttr=5.0, priority=1),
        BasicComponent("gamma", mttf=200.0, mttr=1.0, priority=3),
    )
    repair = RepairUnit(
        "unit",
        strategy=strategy,
        components=("alpha", "beta", "gamma"),
        crews=crews,
        preemptive=preemptive,
    )
    fault_tree = FaultTree(
        Or(BasicEvent("alpha"), BasicEvent("beta"), BasicEvent("gamma"))
    )
    disaster = Disaster("everything", ("alpha", "beta", "gamma"))
    return ArcadeModel(
        name="mini",
        components=components,
        repair_units=(repair,),
        fault_tree=fault_tree,
        disasters=(disaster,),
    )


def make_spare_model(dormancy: float = 0.0) -> ArcadeModel:
    """Two pumps (one needed) with a configurable standby mode, plus a valve."""
    components = (
        BasicComponent("pump1", mttf=100.0, mttr=4.0, dormancy_factor=dormancy),
        BasicComponent("pump2", mttf=100.0, mttr=4.0, dormancy_factor=dormancy),
        BasicComponent("valve", mttf=400.0, mttr=8.0),
    )
    repair = RepairUnit("unit", "fcfs", ("pump1", "pump2", "valve"), crews=1)
    spare = SpareManagementUnit("pumps", ("pump1", "pump2"), required=1)
    fault_tree = FaultTree(
        Or(KOfN(2, [BasicEvent("pump1"), BasicEvent("pump2")]), BasicEvent("valve"))
    )
    return ArcadeModel(
        name="spares",
        components=components,
        repair_units=(repair,),
        spare_units=(spare,),
        fault_tree=fault_tree,
    )


_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_LABEL = r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\\n]|\\[\\"n])*)"'
_VALUE = r"[+-]?(?:\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|Inf)|NaN"


def check_exposition(text: str) -> dict[str, tuple[str, dict]]:
    """Parse a Prometheus text dump strictly: ``{family: (type, samples)}``.

    Every line is a ``# TYPE`` line or a sample.  Each family has one
    ``# TYPE`` line ahead of its samples, which follow it contiguously and
    carry its name (plus ``_bucket``/``_sum``/``_count`` for a histogram).
    Name-and-label sets are unique, backslashes, double quotes and newlines
    in label values escaped, and values numeric.  ``samples`` maps ``(name,
    ((label, escaped value), ...))`` to the value.
    """
    assert text.endswith("\n") or not text, "a dump ends with a newline"
    families: dict[str, tuple[str, dict]] = {}
    current = None
    for line in text[:-1].split("\n") if text else ():
        declared = re.fullmatch(rf"# TYPE ({_NAME}) (counter|gauge|histogram)", line)
        if declared:
            assert declared[1] not in families, f"{declared[1]} declared twice"
            current = declared[1]
            families[current] = (declared[2], {})
            continue
        sample = re.fullmatch(rf"({_NAME})(?:\{{(.*)\}})? ({_VALUE})", line)
        assert sample and current is not None, f"not a sample of a family: {line!r}"
        name, labels, value = sample.groups()
        kind, samples = families[current]
        suffixes = ("_bucket", "_sum", "_count") if kind == "histogram" else ("",)
        assert name in {current + suffix for suffix in suffixes}, (
            f"{name} outside its family ({current} is open)"
        )
        pairs: tuple = ()
        if labels is not None:
            assert re.fullmatch(rf"{_LABEL}(?:,{_LABEL})*", labels), f"labels of {line!r}"
            pairs = tuple(re.findall(_LABEL, labels))
            assert len({label for label, _ in pairs}) == len(pairs), line
        assert (name, pairs) not in samples, f"duplicate sample {line!r}"
        samples[name, pairs] = float(value)
    return families
