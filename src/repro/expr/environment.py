"""Evaluation environments for the expression language.

An :class:`Environment` is a thin wrapper around a mapping from variable
names to values.  It exists mainly to give good error messages when an
expression refers to an unknown variable, and to allow layered scopes
(useful when a composed system evaluates expressions over the union of the
variables of several modules).
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Iterator


class UnknownVariableError(KeyError):
    """Raised when an expression refers to a variable that is not bound."""

    def __init__(self, name: str, known: tuple[str, ...]) -> None:
        self.name = name
        self.known = known
        super().__init__(
            f"unknown variable {name!r}; known variables: {', '.join(sorted(known)) or '(none)'}"
        )


class Environment(Mapping[str, Any]):
    """A mapping of variable names to values, possibly layered.

    Parameters
    ----------
    bindings:
        The innermost scope: a mapping from variable names to values.
    parent:
        An optional enclosing environment consulted when a name is not
        found in ``bindings``.

    Examples
    --------
    >>> outer = Environment({"x": 1})
    >>> inner = Environment({"y": 2}, parent=outer)
    >>> inner["x"], inner["y"]
    (1, 2)
    """

    __slots__ = ("_bindings", "_parent")

    def __init__(
        self,
        bindings: Mapping[str, Any] | None = None,
        parent: "Environment | Mapping[str, Any] | None" = None,
    ) -> None:
        self._bindings: dict[str, Any] = dict(bindings or {})
        self._parent = parent

    def __getitem__(self, name: str) -> Any:
        if name in self._bindings:
            return self._bindings[name]
        if self._parent is not None:
            try:
                return self._parent[name]
            except KeyError:
                pass
        raise UnknownVariableError(name, tuple(self.keys()))

    def __iter__(self) -> Iterator[str]:
        seen = set()
        for name in self._bindings:
            seen.add(name)
            yield name
        if self._parent is not None:
            for name in self._parent:
                if name not in seen:
                    seen.add(name)
                    yield name

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def child(self, bindings: Mapping[str, Any]) -> "Environment":
        """Return a new environment layered on top of this one."""
        return Environment(bindings, parent=self)

    def with_updates(self, updates: Mapping[str, Any]) -> "Environment":
        """Return a flat copy of this environment with ``updates`` applied."""
        merged = dict(self)
        merged.update(updates)
        return Environment(merged)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Environment({dict(self)!r})"
