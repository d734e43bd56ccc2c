"""Properties of the one stats mechanism (`repro.stats`).

Every stats record of the package is generated at random from its own field
declarations: absorbing a random split of random records, in any order,
must equal absorbing them at once, ``reset()`` must give a fresh record,
and every rendered record must pass the strict exposition check.
"""

from __future__ import annotations

import copy
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import check_exposition
from repro.analysis import SessionStats
from repro.ctmc import LinearSolveStats, UniformizationStats
from repro.optimize import OptimizerStats
from repro.service import (
    CacheKindStats,
    CacheStats,
    LatencyHistogram,
    ServiceStats,
    ShardedServiceStats,
)
from repro.service.http import HTTPStats
from repro.service.shard import ShardGauges
from repro.stats import Record, render_metrics

RECORD_TYPES = [
    UniformizationStats,
    LinearSolveStats,
    SessionStats,
    ServiceStats,
    LatencyHistogram,
    CacheKindStats,
    CacheStats,
    ShardedServiceStats,
    ShardGauges,
    OptimizerStats,
    HTTPStats,
]

COUNTS = st.integers(0, 10**6)
# Eighths keep every sum exact, so the property can ask for equality.
SECONDS = st.integers(0, 10**6).map(lambda eighths: eighths / 8)
# Label values a renderer must escape sit next to plain ones.
KEYS = st.sampled_from([0, 1, 2, "up", "POST /scenario", 'a"b}', "c\\d", "e\nf"])


@st.composite
def records(draw, record_type: type) -> Record:
    """A record of ``record_type`` with every field drawn at random."""
    record = record_type()
    for spec in fields(record):
        value = getattr(record, spec.name)
        if isinstance(value, Record):
            value = draw(records(type(value)))
        elif isinstance(value, list):
            value = draw(st.lists(COUNTS, min_size=len(value), max_size=len(value)))
        elif isinstance(value, dict):
            width = len(spec.metadata["labels"])
            key = KEYS if width == 1 else st.tuples(*[KEYS] * width)
            entry = spec.metadata["record"]
            value = draw(
                st.dictionaries(key, records(entry) if entry else COUNTS, max_size=3)
            )
        elif isinstance(value, float):
            value = draw(SECONDS)
        elif isinstance(value, int):
            value = draw(COUNTS)
        setattr(record, spec.name, value)
    return record


@pytest.mark.parametrize("record_type", RECORD_TYPES, ids=lambda t: t.__name__)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_absorbing_a_split_in_any_order_equals_absorbing_at_once(record_type, data):
    parts = data.draw(st.lists(records(record_type), min_size=1, max_size=5))
    originals = copy.deepcopy(parts)
    single = record_type()
    single.absorb(parts[0])
    assert single == parts[0]  # a fresh record absorbs every field
    at_once = record_type()
    for part in parts:
        at_once.absorb(part)
    order = data.draw(st.permutations(range(len(parts))))
    cut = data.draw(st.integers(0, len(parts)))
    left, right = record_type(), record_type()
    for index in order[:cut]:
        left.absorb(parts[index])
    for index in order[cut:]:
        right.absorb(parts[index])
    split = record_type()
    split.absorb(right)
    split.absorb(left)
    assert split == at_once
    assert parts == originals  # absorbing never aliases or changes its input
    split.reset()
    assert split == record_type()


@pytest.mark.parametrize("record_type", RECORD_TYPES, ids=lambda t: t.__name__)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_every_rendered_record_passes_the_exposition_check(record_type, data):
    record = data.draw(records(record_type))
    families = check_exposition(render_metrics(record))
    assert all(family.startswith("repro_") for family in families)
    assert record.summary().startswith(f"{record.label}: ")


def test_counters_add_and_gauges_keep_the_largest_value():
    total = ServiceStats(flushes=2, largest_flush=5)
    total.absorb(ServiceStats(flushes=3, largest_flush=4))
    assert (total.flushes, total.largest_flush) == (5, 5)
    gauges = ShardGauges(alive={0: 1})
    gauges.absorb(ShardGauges(alive={0: 0, 1: 1}))
    assert gauges.alive == {0: 1, 1: 1}


def test_label_values_are_escaped():
    stats = HTTPStats(requests={('GET /a"b}', 404): 1, ("BREW /x\\y\n", 404): 2})
    text = render_metrics(stats)
    assert 'route="GET /a\\"b}",status="404"} 1' in text
    assert 'route="BREW /x\\\\y\\n",status="404"} 2' in text
    (kind, samples), = check_exposition(text).values()
    assert kind == "counter" and sorted(samples.values()) == [1.0, 2.0]


def test_a_sample_exported_twice_is_refused():
    with pytest.raises(ValueError, match="exported twice"):
        render_metrics(ServiceStats(), ServiceStats())


def test_records_with_other_histogram_bounds_do_not_absorb():
    histogram = LatencyHistogram(bounds=(0.1, 1.0))
    with pytest.raises(ValueError, match="bounds"):
        histogram.absorb(LatencyHistogram())
