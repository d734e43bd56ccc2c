"""Data model of stochastic reactive modules.

The formalism follows PRISM's CTMC mode:

* A *module* owns a set of bounded variables and a set of guarded commands.
* A command ``[action] guard -> r1:u1 + r2:u2 + ...`` is enabled in a state
  where its guard holds; each alternative contributes a transition whose rate
  is the evaluated rate expression.
* Commands without an action label (``action == ""``) execute independently
  (interleaving).
* Commands with the same action label synchronise across all modules whose
  alphabet contains that label; the rate of the joint transition is the
  *product* of the participating rates (PRISM convention: all but one module
  typically uses rate 1).

Guards, rates and update right-hand sides are expressions over the union of
all module variables, so modules may read (but not write) each other's
variables, exactly as in PRISM.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.expr import Expression
from repro.expr.nodes import _coerce  # type: ignore[attr-defined]


class ModulesError(ValueError):
    """Raised when a modules file is malformed."""


@dataclass(frozen=True)
class VariableDeclaration:
    """Declaration of a bounded state variable.

    Parameters
    ----------
    name:
        Variable name, unique across the whole system.
    low, high:
        Inclusive bounds for integer variables.  For boolean variables use
        :meth:`boolean`.
    initial:
        Initial value (defaults to ``low`` / ``False``).
    is_boolean:
        Whether the variable is boolean.
    """

    name: str
    low: int = 0
    high: int = 1
    initial: int | bool | None = None
    is_boolean: bool = False

    def __post_init__(self) -> None:
        if not self.is_boolean and self.low > self.high:
            raise ModulesError(f"variable {self.name!r}: low bound exceeds high bound")

    @staticmethod
    def boolean(name: str, initial: bool = False) -> "VariableDeclaration":
        """Declare a boolean variable."""
        return VariableDeclaration(name, 0, 1, initial, is_boolean=True)

    @staticmethod
    def integer(name: str, low: int, high: int, initial: int | None = None) -> "VariableDeclaration":
        """Declare a bounded integer variable."""
        return VariableDeclaration(name, low, high, initial, is_boolean=False)

    @property
    def initial_value(self) -> int | bool:
        if self.initial is None:
            return False if self.is_boolean else self.low
        return self.initial

    def validate_value(self, value: Any) -> int | bool:
        """Clamp-check a value against the declaration."""
        if self.is_boolean:
            if isinstance(value, bool):
                return value
            if value in (0, 1):
                return bool(value)
            raise ModulesError(f"variable {self.name!r}: {value!r} is not boolean")
        if isinstance(value, bool):
            value = int(value)
        if not isinstance(value, int):
            if isinstance(value, float) and float(value).is_integer():
                value = int(value)
            else:
                raise ModulesError(f"variable {self.name!r}: {value!r} is not an integer")
        if not self.low <= value <= self.high:
            raise ModulesError(
                f"variable {self.name!r}: value {value} outside range [{self.low}, {self.high}]"
            )
        return value


@dataclass(frozen=True)
class Update:
    """An assignment of new values to variables.

    ``assignments`` maps variable names to expressions evaluated in the
    *current* state; unmentioned variables keep their value.
    """

    assignments: Mapping[str, Expression] = field(default_factory=dict)

    def __post_init__(self) -> None:
        coerced = {name: _coerce(value) for name, value in dict(self.assignments).items()}
        object.__setattr__(self, "assignments", coerced)

    def apply(self, state: Mapping[str, Any]) -> dict[str, Any]:
        """Return the successor valuation of this update in ``state``."""
        successor = dict(state)
        for name, expression in self.assignments.items():
            successor[name] = expression.evaluate(state)
        return successor

    def variables_written(self) -> frozenset[str]:
        return frozenset(self.assignments)

    def variables_read(self) -> frozenset[str]:
        read: set[str] = set()
        for expression in self.assignments.values():
            read |= expression.variables()
        return frozenset(read)

    def __str__(self) -> str:
        if not self.assignments:
            return "true"
        return " & ".join(f"({name}'={expr})" for name, expr in sorted(self.assignments.items()))


@dataclass(frozen=True)
class Command:
    """A guarded command ``[action] guard -> rate_1:update_1 + ...``."""

    action: str
    guard: Expression
    alternatives: Sequence[tuple[Expression, Update]]

    def __post_init__(self) -> None:
        if not self.alternatives:
            raise ModulesError("a command needs at least one rate:update alternative")
        coerced = tuple((_coerce(rate), update) for rate, update in self.alternatives)
        object.__setattr__(self, "alternatives", coerced)
        object.__setattr__(self, "guard", _coerce(self.guard))

    @staticmethod
    def simple(
        action: str,
        guard: Expression,
        rate: Expression | float,
        update: Update | Mapping[str, Expression | int | bool],
    ) -> "Command":
        """Convenience constructor for single-alternative commands."""
        if not isinstance(update, Update):
            update = Update({name: _coerce(value) for name, value in update.items()})
        return Command(action, guard, [(_coerce(rate), update)])

    def variables_read(self) -> frozenset[str]:
        read = set(self.guard.variables())
        for rate, update in self.alternatives:
            read |= rate.variables()
            read |= update.variables_read()
        return frozenset(read)

    def variables_written(self) -> frozenset[str]:
        written: set[str] = set()
        for _, update in self.alternatives:
            written |= update.variables_written()
        return frozenset(written)

    def __str__(self) -> str:
        alternatives = " + ".join(f"{rate} : {update}" for rate, update in self.alternatives)
        return f"[{self.action}] {self.guard} -> {alternatives};"


@dataclass
class Module:
    """A named module: local variables plus guarded commands."""

    name: str
    variables: list[VariableDeclaration] = field(default_factory=list)
    commands: list[Command] = field(default_factory=list)

    def add_variable(self, declaration: VariableDeclaration) -> "Module":
        self.variables.append(declaration)
        return self

    def add_command(self, command: Command) -> "Module":
        self.commands.append(command)
        return self

    def alphabet(self) -> frozenset[str]:
        """The set of synchronising action labels used by this module."""
        return frozenset(command.action for command in self.commands if command.action)

    def variable_names(self) -> frozenset[str]:
        return frozenset(declaration.name for declaration in self.variables)

    def validate(self) -> None:
        names = [declaration.name for declaration in self.variables]
        duplicates = {name for name in names if names.count(name) > 1}
        if duplicates:
            raise ModulesError(f"module {self.name!r}: duplicate variables {sorted(duplicates)}")
        owned = self.variable_names()
        for command in self.commands:
            foreign = command.variables_written() - owned
            if foreign:
                raise ModulesError(
                    f"module {self.name!r}: command {command} writes variables "
                    f"{sorted(foreign)} it does not own"
                )


@dataclass(frozen=True)
class RewardItem:
    """One line of a reward structure.

    State-reward items (``action is None``) contribute ``value`` per time
    unit to every state satisfying ``guard``; transition-reward items
    contribute an impulse ``value`` to every transition with the given
    action label taken from a state satisfying ``guard``.
    """

    guard: Expression
    value: Expression
    action: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "guard", _coerce(self.guard))
        object.__setattr__(self, "value", _coerce(self.value))

    @property
    def is_transition_reward(self) -> bool:
        return self.action is not None


@dataclass
class RewardStructureDefinition:
    """A named collection of reward items (PRISM ``rewards ... endrewards``)."""

    name: str
    items: list[RewardItem] = field(default_factory=list)

    def add_state_reward(self, guard: Expression, value: Expression | float) -> "RewardStructureDefinition":
        self.items.append(RewardItem(guard, _coerce(value)))
        return self

    def add_transition_reward(
        self, action: str, guard: Expression, value: Expression | float
    ) -> "RewardStructureDefinition":
        self.items.append(RewardItem(guard, _coerce(value), action))
        return self

    def state_reward(self, state: Mapping[str, Any]) -> float:
        """Total state-reward rate in ``state``."""
        total = 0.0
        for item in self.items:
            if item.is_transition_reward:
                continue
            if item.guard.evaluate(state):
                total += float(item.value.evaluate(state))
        return total

    def transition_reward(self, action: str, state: Mapping[str, Any]) -> float:
        """Total impulse reward for taking ``action`` from ``state``."""
        total = 0.0
        for item in self.items:
            if not item.is_transition_reward or item.action != action:
                continue
            if item.guard.evaluate(state):
                total += float(item.value.evaluate(state))
        return total


@dataclass
class ModulesFile:
    """A complete system: modules, constants, labels and reward structures."""

    model_type: str = "ctmc"
    modules: list[Module] = field(default_factory=list)
    labels: dict[str, Expression] = field(default_factory=dict)
    rewards: list[RewardStructureDefinition] = field(default_factory=list)
    constants: dict[str, float | int | bool] = field(default_factory=dict)
    initial_overrides: dict[str, int | bool] = field(default_factory=dict)

    def add_module(self, module: Module) -> "ModulesFile":
        self.modules.append(module)
        return self

    def add_label(self, name: str, expression: Expression) -> "ModulesFile":
        self.labels[name] = _coerce(expression)
        return self

    def add_rewards(self, definition: RewardStructureDefinition) -> "ModulesFile":
        self.rewards.append(definition)
        return self

    def set_constant(self, name: str, value: float | int | bool) -> "ModulesFile":
        self.constants[name] = value
        return self

    # ------------------------------------------------------------------
    # derived information
    # ------------------------------------------------------------------
    def all_variables(self) -> list[VariableDeclaration]:
        declarations: list[VariableDeclaration] = []
        for module in self.modules:
            declarations.extend(module.variables)
        return declarations

    def initial_state(self) -> dict[str, Any]:
        """The initial valuation of all variables (plus constants)."""
        state: dict[str, Any] = dict(self.constants)
        for declaration in self.all_variables():
            value = self.initial_overrides.get(declaration.name, declaration.initial_value)
            state[declaration.name] = declaration.validate_value(value)
        return state

    def with_initial_state(self, overrides: Mapping[str, int | bool]) -> "ModulesFile":
        """Return a copy of the system with some initial values overridden."""
        copy = ModulesFile(
            model_type=self.model_type,
            modules=self.modules,
            labels=dict(self.labels),
            rewards=list(self.rewards),
            constants=dict(self.constants),
            initial_overrides={**self.initial_overrides, **overrides},
        )
        return copy

    def synchronising_actions(self) -> frozenset[str]:
        actions: set[str] = set()
        for module in self.modules:
            actions |= module.alphabet()
        return frozenset(actions)

    def validate(self) -> None:
        """Check static well-formedness of the system."""
        if self.model_type != "ctmc":
            raise ModulesError(f"only CTMC modules files are supported, got {self.model_type!r}")
        if not self.modules:
            raise ModulesError("a modules file needs at least one module")
        seen: dict[str, str] = {}
        for module in self.modules:
            module.validate()
            for declaration in module.variables:
                if declaration.name in seen:
                    raise ModulesError(
                        f"variable {declaration.name!r} declared in both "
                        f"{seen[declaration.name]!r} and {module.name!r}"
                    )
                if declaration.name in self.constants:
                    raise ModulesError(
                        f"variable {declaration.name!r} clashes with a constant of the same name"
                    )
                seen[declaration.name] = module.name
        known = set(seen) | set(self.constants)
        for module in self.modules:
            for command in module.commands:
                unknown = command.variables_read() - known
                if unknown:
                    raise ModulesError(
                        f"module {module.name!r}: command {command} reads unknown "
                        f"variables {sorted(unknown)}"
                    )
        for name, expression in self.labels.items():
            unknown = expression.variables() - known
            if unknown:
                raise ModulesError(
                    f"label {name!r} reads unknown variables {sorted(unknown)}"
                )
