"""One mechanism for work counters: merge, reset, summarise and render.

Every stats record of the package is a dataclass deriving from
:class:`Record`.  A number field is a counter unless declared a
:func:`gauge`; a dict field holds numbers or records per key (:func:`keyed`);
a record field nests.  From that the base derives :meth:`Record.absorb`,
:meth:`Record.reset`, :meth:`Record.summary` and the Prometheus samples
that :func:`render_metrics`, the one writer of the text exposition format,
renders for ``GET /metrics``, ``serve --metrics`` and ``optimize --metrics``.

Families are named after the record's ``label``: ``repro_<label>_<field>_total``
for a counter, ``repro_<label>_<field>`` for a gauge, a nested record's fields
under its parent's name, and a :class:`LatencyHistogram` field as one
``..._<field>_seconds`` histogram.  A field may name its family (``family=``).

This module imports nothing from :mod:`repro`, so every layer can use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Any, ClassVar

COUNTER, GAUGE = "counter", "gauge"


def counter(*, family: str) -> Any:
    """A counter exported as ``<family>_total`` instead of after its field."""
    return field(default=0, metadata={"family": family})


def gauge(default: float = 0) -> Any:
    """A number that keeps the largest value when records are absorbed."""
    return field(default=default, metadata={"kind": GAUGE})


def keyed(labels: str | tuple[str, ...], record: type | None = None, *,
          kind: str = COUNTER, family: str | None = None) -> Any:
    """A dict of ``record`` instances, or of numbers of ``kind``, per key.

    The key gives the values of ``labels``: a plain key for one label, a
    tuple for several.
    """
    labels = (labels,) if isinstance(labels, str) else tuple(labels)
    metadata = {"labels": labels, "record": record, "kind": kind, "family": family}
    return field(default_factory=dict, metadata=metadata)


class Record:
    """Base of every stats dataclass (see the module docstring).

    ``label`` opens the summary and names the families (``repro_<label>``).
    ``derived`` maps property names to ``COUNTER`` or ``GAUGE``: values
    computed from the fields, which the summary and ``/metrics`` show too.
    Tuple fields are settings that records must agree on; list fields are
    histogram buckets.
    """

    label: ClassVar[str] = "stats"
    derived: ClassVar[dict[str, str]] = {}

    def absorb(self, other: "Record") -> None:
        """Add ``other``, a record of the same type, into this one."""
        for spec in fields(self):
            name, kind = spec.name, spec.metadata.get("kind", COUNTER)
            mine, theirs = getattr(self, name), getattr(other, name)
            if isinstance(mine, Record):
                mine.absorb(theirs)
            elif isinstance(mine, tuple):
                if mine != theirs:
                    raise ValueError(f"cannot absorb a record with other {name}")
            elif isinstance(mine, list):
                setattr(self, name, [a + b for a, b in zip(mine, theirs)])
            elif isinstance(mine, dict):
                for key, value in theirs.items():
                    if spec.metadata["record"] is not None:
                        mine.setdefault(key, spec.metadata["record"]()).absorb(value)
                    else:
                        old = mine.get(key, value if kind == GAUGE else 0)
                        mine[key] = max(old, value) if kind == GAUGE else old + value
            else:
                setattr(self, name, max(mine, theirs) if kind == GAUGE else mine + theirs)

    def reset(self) -> None:
        """Zero every counter, gauge and bucket; settings stay."""
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, Record):
                value.reset()
            elif isinstance(value, dict):
                value.clear()
            elif isinstance(value, list):
                setattr(self, spec.name, [0] * len(value))
            elif not isinstance(value, tuple):
                setattr(self, spec.name, spec.default)

    def summary(self) -> str:
        """One line for CLI output and logs: the non-zero values, by field."""
        parts, nested = [], []
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, Record):
                nested.append(value.summary())
            elif isinstance(value, dict) and value:
                entries = " ".join(f"{_key(key)}={_text(v)}" for key, v in value.items())
                parts.append(f"{spec.name}({entries})")
            elif isinstance(value, (int, float)) and value:
                parts.append(f"{spec.name}={_text(value)}")
        parts += [f"{name}={_text(getattr(self, name))}"
                  for name in self.derived if getattr(self, name)]
        return " | ".join([f"{self.label}: {' '.join(parts) or '(empty)'}", *nested])


def _text(value: Any) -> str:
    if isinstance(value, Record):
        return f"({value.summary().partition(': ')[2]})"
    return f"{value:.3f}" if isinstance(value, float) else str(value)


def _key(key: Any) -> str:
    return ",".join(map(str, key)) if isinstance(key, tuple) else str(key)


#: Flush-latency bucket upper bounds in seconds: sub-millisecond flushes up
#: to multi-second portfolio batches, roughly log-spaced (Prometheus style).
DEFAULT_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


@dataclass
class LatencyHistogram(Record):
    """A fixed-bucket latency histogram (Prometheus-compatible shape).

    ``counts[i]`` is the number of observations with value at most
    ``bounds[i]`` *exclusive of earlier buckets* (plain, not cumulative);
    ``counts[-1]`` is the overflow bucket.  :func:`render_metrics` writes it
    as one histogram family: cumulative ``_bucket`` series, ``_sum`` and
    ``_count``.
    """

    label: ClassVar[str] = "flush_latency"

    bounds: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS
    counts: list[int] = field(default_factory=list)
    observations: int = 0
    total_seconds: float = 0.0
    max_seconds: float = gauge(0.0)

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)
        elif len(self.counts) != len(self.bounds) + 1:
            raise ValueError("counts must have one entry per bucket plus overflow")

    def observe(self, seconds: float) -> None:
        """Record one latency observation."""
        seconds = float(seconds)
        index = 0
        while index < len(self.bounds) and seconds > self.bounds[index]:
            index += 1
        self.counts[index] += 1
        self.observations += 1
        self.total_seconds += seconds
        self.max_seconds = max(self.max_seconds, seconds)

    def quantile_bound(self, quantile: float) -> float:
        """The smallest bucket bound covering ``quantile`` of observations.

        Returns ``inf`` when the quantile falls into the overflow bucket and
        ``nan`` when nothing was observed; an upper *bound*, not an
        interpolated estimate — honest about the bucket resolution.
        """
        if not self.observations:
            return float("nan")
        needed = quantile * self.observations
        cumulative = 0
        for bound, count in zip(self.bounds, self.counts):
            cumulative += count
            if cumulative >= needed:
                return bound
        return float("inf")


def render_metrics(*records: Record) -> str:
    """The Prometheus text exposition of ``records``, in order.

    Each family gets one ``# TYPE`` line ahead of its samples.  Records
    that export one sample twice, or one family under two types, raise
    ``ValueError`` instead of writing an ambiguous dump.
    """
    families: dict[str, tuple[str, dict]] = {}
    for record in records:
        _export(record, f"repro_{record.label}", (), families)
    lines = []
    for family, (kind, samples) in families.items():
        lines.append(f"# TYPE {family} {kind}")
        for (name, labels), value in samples.items():
            pairs = ",".join(f'{label}="{_escape(text)}"' for label, text in labels)
            lines.append(f"{name}{{{pairs}}} {_number(value)}" if pairs
                         else f"{name} {_number(value)}")
    return "".join(line + "\n" for line in lines)


def _export(record: Record, name: str, labels: tuple, families: dict) -> None:
    """Add the samples of ``record``, exported under ``name``, to ``families``."""
    if isinstance(record, LatencyHistogram):
        name += "_seconds"
        cumulative = 0
        for bound, count in zip(record.bounds + (math.inf,), record.counts):
            cumulative += count
            le = labels + (("le", _number(float(bound))),)
            _add(families, name, "histogram", f"{name}_bucket", le, cumulative)
        _add(families, name, "histogram", f"{name}_sum", labels, record.total_seconds)
        _add(families, name, "histogram", f"{name}_count", labels, record.observations)
        return
    exported = [(spec.name, spec.metadata) for spec in fields(record)]
    exported += [(prop, {"kind": kind}) for prop, kind in record.derived.items()]
    for field_name, metadata in exported:
        value, kind = getattr(record, field_name), metadata.get("kind", COUNTER)
        family = metadata.get("family") or f"{name}_{field_name}"
        family += "_total" if kind == COUNTER else ""
        if isinstance(value, LatencyHistogram):
            _export(value, f"{name}_{field_name}", labels, families)
        elif isinstance(value, Record):
            _export(value, name, labels, families)
        elif isinstance(value, dict):
            for key, entry in value.items():
                values = key if isinstance(key, tuple) else (key,)
                tagged = labels + tuple(zip(metadata["labels"], map(str, values)))
                if metadata["record"] is not None:
                    _export(entry, name, tagged, families)
                else:
                    _add(families, family, kind, family, tagged, entry)
        elif isinstance(value, (int, float)):
            _add(families, family, kind, family, labels, value)


def _add(families: dict, family: str, kind: str, name: str, labels: tuple,
         value: float) -> None:
    known, samples = families.setdefault(family, (kind, {}))
    if known != kind or (name, labels) in samples:
        raise ValueError(f"{name}{dict(labels)} exported twice or as {known} and {kind}")
    samples[name, labels] = value


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _number(value: float) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        return repr(value)
    return str(int(value))
