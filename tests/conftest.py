"""Shared fixtures for the Grid-WFS test suite (workflow-construction
helpers live in tests/helpers.py)."""

from __future__ import annotations

import pytest

from repro.events import EventBus
from repro.grid import GridConfig, SimKernel, SimReactor, SimulatedGrid


@pytest.fixture
def kernel() -> SimKernel:
    return SimKernel()


@pytest.fixture
def reactor(kernel: SimKernel) -> SimReactor:
    return SimReactor(kernel)


@pytest.fixture
def bus() -> EventBus:
    """A tapped bus: ``bus.published`` lists every ``(topic, payload)``
    in publish order."""
    bus = EventBus()
    bus.published = published = []
    bus.add_tap(lambda topic, payload: published.append((topic, payload)))
    return bus


@pytest.fixture
def quiet_grid() -> SimulatedGrid:
    """A grid without heartbeats (pure prompt-crash detection) for fast,
    deterministic engine tests."""
    return SimulatedGrid(config=GridConfig(heartbeats=False))
