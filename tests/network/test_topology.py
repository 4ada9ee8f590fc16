"""Tests for topology generation and editing."""

import pytest

from repro.network.topology import (
    grid_topology,
    kary_tree_topology,
    random_geometric_topology,
)


class TestRandomGeometric:
    def test_generates_requested_number_of_nodes(self, rng):
        topo = random_geometric_topology(30, comm_range=35.0, area_size=100.0, rng=rng)
        assert topo.num_nodes == 30
        assert topo.node_ids == list(range(30))

    def test_connected_by_default(self, rng):
        topo = random_geometric_topology(30, comm_range=35.0, area_size=100.0, rng=rng)
        assert topo.is_connected()

    def test_links_respect_radio_range(self, rng):
        topo = random_geometric_topology(25, comm_range=30.0, area_size=100.0, rng=rng)
        for a, b in topo.graph.edges:
            assert topo.distance(a, b) <= 30.0 + 1e-9
        # And no pair within range is missing a link.
        ids = topo.node_ids
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                if topo.distance(a, b) <= 30.0:
                    assert topo.has_link(a, b)

    def test_root_placed_at_field_centre_by_default(self, rng):
        topo = random_geometric_topology(20, comm_range=40.0, area_size=100.0, rng=rng)
        assert topo.position(0) == (50.0, 50.0)

    def test_same_seed_same_topology(self):
        import numpy as np

        a = random_geometric_topology(20, 35.0, rng=np.random.default_rng(5))
        b = random_geometric_topology(20, 35.0, rng=np.random.default_rng(5))
        assert a.positions == b.positions
        assert set(a.graph.edges) == set(b.graph.edges)

    def test_impossible_connectivity_raises(self, rng):
        with pytest.raises(RuntimeError):
            random_geometric_topology(
                30, comm_range=2.0, area_size=500.0, rng=rng, max_attempts=3
            )

    def test_invalid_arguments(self, rng):
        with pytest.raises(ValueError):
            random_geometric_topology(0, 10.0, rng=rng)
        with pytest.raises(ValueError):
            random_geometric_topology(5, -1.0, rng=rng)


class TestGridAndTree:
    def test_grid_dimensions(self):
        topo = grid_topology(3, 4, spacing=10.0)
        assert topo.num_nodes == 12
        assert topo.is_connected()

    def test_grid_strict_4_neighbourhood(self):
        # The default range (1.1x the spacing) excludes the diagonals too.
        for topo in (
            grid_topology(3, 3, spacing=10.0, comm_range=11.0),
            grid_topology(3, 3, spacing=10.0),
        ):
            # Interior node 4 has exactly 4 neighbours.
            assert topo.neighbors(4) == [1, 3, 5, 7]
            # Corner node 0 has exactly 2.
            assert topo.neighbors(0) == [1, 3]

    def test_kary_tree_node_count(self):
        topo = kary_tree_topology(branching=2, depth=3)
        assert topo.num_nodes == 15
        assert topo.num_links == 14

    def test_kary_tree_depth_zero_is_single_node(self):
        topo = kary_tree_topology(branching=3, depth=0)
        assert topo.num_nodes == 1
        assert topo.num_links == 0

    def test_kary_tree_root_degree_is_branching(self):
        topo = kary_tree_topology(branching=4, depth=2)
        assert topo.degree(0) == 4

    def test_invalid_tree_parameters(self):
        with pytest.raises(ValueError):
            kary_tree_topology(0, 2)
        with pytest.raises(ValueError):
            kary_tree_topology(2, -1)


class TestTopologyEditing:
    def test_degree_and_neighbors(self, star4):
        assert star4.degree(0) == 4
        assert star4.neighbors(0) == [1, 2, 3, 4]
        assert star4.neighbors(3) == [0]

    def test_position_array_order(self, line5):
        arr = line5.position_array([4, 0])
        assert arr.shape == (2, 2)
        assert tuple(arr[0]) == line5.position(4)
        assert tuple(arr[1]) == line5.position(0)
