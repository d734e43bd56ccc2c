"""Shared fixtures for the test suite."""

from __future__ import annotations

import collections

import numpy as np
import pytest

from repro.arcade import ArcadeModel, build_state_space
from repro.ctmc import CTMC
from repro.service import ScenarioRegistry

from helpers import make_mini_model, make_spare_model


@pytest.fixture
def two_state_chain() -> CTMC:
    """A single repairable component: up (state 0) <-> down (state 1)."""
    rates = np.array([[0.0, 0.01], [0.5, 0.0]])
    return CTMC(rates, {0: 1.0}, labels={"up": [0], "down": [1]})


@pytest.fixture
def absorbing_chain() -> CTMC:
    """A 3-state chain with an absorbing failure state (no repair)."""
    rates = np.array(
        [
            [0.0, 0.02, 0.0],
            [0.0, 0.0, 0.1],
            [0.0, 0.0, 0.0],
        ]
    )
    return CTMC(rates, {0: 1.0}, labels={"working": [0, 1], "failed": [2]})


@pytest.fixture
def mini_model() -> ArcadeModel:
    return make_mini_model()


@pytest.fixture
def mini_space(mini_model):
    return build_state_space(mini_model)


@pytest.fixture
def spare_model() -> ArcadeModel:
    return make_spare_model()


@pytest.fixture
def expansions(monkeypatch) -> collections.Counter:
    """``ScenarioRegistry.expand`` calls, per (name, points)."""
    calls: collections.Counter = collections.Counter()
    expand = ScenarioRegistry.expand

    def counted(self, name, points=None):
        calls[name, points] += 1
        return expand(self, name, points=points)

    monkeypatch.setattr(ScenarioRegistry, "expand", counted)
    return calls
