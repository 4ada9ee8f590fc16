"""Shared pytest fixtures."""

from __future__ import annotations

import numpy as np
import pytest

from repro.network.topology import random_geometric_topology
from repro.sensors.dataset import SensorDataset
from repro.simulation.engine import Simulator
from repro.simulation.rng import RandomStreams

from .helpers import (
    build_mini_world,
    constant_dataset,
    line_topology,
    star_topology,
)


@pytest.fixture
def sim() -> Simulator:
    """A fresh discrete-event simulator."""
    return Simulator()


@pytest.fixture
def rng() -> np.random.Generator:
    """A seeded random generator for deterministic tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def streams() -> RandomStreams:
    return RandomStreams(seed=42)


@pytest.fixture
def small_topology(rng):
    """A connected 12-node random geometric topology."""
    return random_geometric_topology(
        num_nodes=12, comm_range=40.0, area_size=80.0, rng=rng
    )


@pytest.fixture
def line5():
    """A 5-node line topology rooted at node 0."""
    return line_topology(5)


@pytest.fixture
def star4():
    """A star with 4 leaves rooted at the centre node 0."""
    return star_topology(4)


@pytest.fixture
def small_dataset(small_topology, rng) -> SensorDataset:
    """A generated dataset over the small topology (2 types, 200 epochs)."""
    from repro.sensors.types import default_type_specs

    specs = default_type_specs()
    wanted = {k: specs[k] for k in ("temperature", "humidity")}
    return SensorDataset.generate(
        node_ids=small_topology.node_ids,
        positions=small_topology.position_array(),
        num_epochs=200,
        rng=rng,
        specs=wanted,
    )


@pytest.fixture
def line_world():
    """A 5-node DirQ line network with a constant-valued dataset.

    Node readings: 0 -> 10, 1 -> 20, 2 -> 30, 3 -> 40, 4 -> 50 so range
    aggregation and query routing outcomes are easy to predict.
    """
    topo = line_topology(5)
    data = constant_dataset(
        topo.node_ids, {0: 10.0, 1: 20.0, 2: 30.0, 3: 40.0, 4: 50.0}, num_epochs=60
    )
    return build_mini_world(topo, data)


@pytest.fixture
def star_world():
    """A 5-node DirQ star with distinct constant readings per leaf."""
    topo = star_topology(4)
    data = constant_dataset(
        topo.node_ids, {0: 0.0, 1: 10.0, 2: 20.0, 3: 30.0, 4: 40.0}, num_epochs=60
    )
    return build_mini_world(topo, data)
