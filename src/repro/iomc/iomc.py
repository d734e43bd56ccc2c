"""The I/O-IMC data structure.

An Input/Output Interactive Markov Chain consists of a set of states, an
initial state, a *signature* partitioning its action alphabet into input,
output and internal actions, and two transition relations:

* interactive transitions ``s --a--> t`` labelled with an action, and
* Markovian transitions ``s --λ--> t`` labelled with an exponential rate.

Conventions used here (matching the Arcade papers):

* action names are plain strings; the customary decorations (``a?``, ``a!``,
  ``a;``) are added only when printing,
* I/O-IMCs are *input enabled* by convention: an input action that has no
  explicit transition in a state is interpreted as a self-loop (the
  composition operator applies this completion), and
* states may carry arbitrary hashable identifiers plus an optional
  human-readable description.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Hashable, Mapping
from typing import Any


class IOIMCError(ValueError):
    """Raised when an I/O-IMC is constructed or used inconsistently."""


@dataclass(frozen=True)
class Signature:
    """The action alphabet of an I/O-IMC, split into inputs, outputs and internals."""

    inputs: frozenset[str] = frozenset()
    outputs: frozenset[str] = frozenset()
    internals: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "inputs", frozenset(self.inputs))
        object.__setattr__(self, "outputs", frozenset(self.outputs))
        object.__setattr__(self, "internals", frozenset(self.internals))
        overlaps = (self.inputs & self.outputs) | (self.inputs & self.internals) | (
            self.outputs & self.internals
        )
        if overlaps:
            raise IOIMCError(f"actions {sorted(overlaps)} appear in more than one class")

    @property
    def actions(self) -> frozenset[str]:
        return self.inputs | self.outputs | self.internals

    def classify(self, action: str) -> str:
        """Return ``"input"``, ``"output"`` or ``"internal"``."""
        if action in self.inputs:
            return "input"
        if action in self.outputs:
            return "output"
        if action in self.internals:
            return "internal"
        raise IOIMCError(f"action {action!r} is not part of the signature")

    def decorate(self, action: str) -> str:
        """Add the customary suffix (``?``, ``!`` or ``;``) to an action name."""
        suffix = {"input": "?", "output": "!", "internal": ";"}[self.classify(action)]
        return f"{action}{suffix}"


@dataclass(frozen=True)
class InteractiveTransition:
    """An action-labelled transition ``source --action--> target``."""

    source: Hashable
    action: str
    target: Hashable


@dataclass(frozen=True)
class MarkovianTransition:
    """A rate-labelled transition ``source --rate--> target``."""

    source: Hashable
    rate: float
    target: Hashable

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise IOIMCError(f"Markovian transition needs a positive rate, got {self.rate}")


@dataclass
class IOIMC:
    """An Input/Output Interactive Markov Chain."""

    name: str
    signature: Signature
    states: set = field(default_factory=set)
    initial_state: Hashable = None
    interactive_transitions: list[InteractiveTransition] = field(default_factory=list)
    markovian_transitions: list[MarkovianTransition] = field(default_factory=list)
    descriptions: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def add_state(self, state: Hashable, description: Any = None, initial: bool = False) -> "IOIMC":
        self.states.add(state)
        if description is not None:
            self.descriptions[state] = description
        if initial or self.initial_state is None:
            self.initial_state = state
        return self

    def add_interactive(self, source: Hashable, action: str, target: Hashable) -> "IOIMC":
        if action not in self.signature.actions:
            raise IOIMCError(
                f"{self.name}: action {action!r} is not declared in the signature"
            )
        self.states.add(source)
        self.states.add(target)
        self.interactive_transitions.append(InteractiveTransition(source, action, target))
        return self

    def add_markovian(self, source: Hashable, rate: float, target: Hashable) -> "IOIMC":
        self.states.add(source)
        self.states.add(target)
        self.markovian_transitions.append(MarkovianTransition(source, rate, target))
        return self

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def validate(self) -> None:
        if self.initial_state is None:
            raise IOIMCError(f"{self.name}: no initial state")
        if self.initial_state not in self.states:
            raise IOIMCError(f"{self.name}: initial state is not a state")

    def interactive_from(self, state: Hashable) -> list[InteractiveTransition]:
        return [t for t in self.interactive_transitions if t.source == state]

    def successors(self, state: Hashable, action: str) -> list[Hashable]:
        """Targets of ``action`` from ``state``; inputs default to a self-loop."""
        targets = [t.target for t in self.interactive_from(state) if t.action == action]
        if not targets and action in self.signature.inputs:
            return [state]
        return targets

    def is_vanishing(self, state: Hashable) -> bool:
        """Whether the state has outgoing output or internal transitions.

        Under the maximal-progress assumption such transitions pre-empt the
        Markovian delays, so the state is left immediately.
        """
        urgent = self.signature.outputs | self.signature.internals
        return any(t.action in urgent for t in self.interactive_from(state))

    def transition_index(self) -> tuple[Mapping, Mapping]:
        """Pre-computed ``state -> transitions`` maps (used by composition)."""
        interactive: dict[Hashable, list[InteractiveTransition]] = {}
        markovian: dict[Hashable, list[MarkovianTransition]] = {}
        for transition in self.interactive_transitions:
            interactive.setdefault(transition.source, []).append(transition)
        for transition in self.markovian_transitions:
            markovian.setdefault(transition.source, []).append(transition)
        return interactive, markovian

    def describe(self, state: Hashable) -> Any:
        return self.descriptions.get(state, state)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"IOIMC({self.name!r}, states={len(self.states)}, "
            f"interactive={len(self.interactive_transitions)}, "
            f"markovian={len(self.markovian_transitions)})"
        )
