"""Tests for the grid-bucket neighbour query (``repro.network.spatial``).

Two layers: unit tests of the query contract of
:func:`~repro.network.spatial.neighbors_of`, the spatial hash every
topology build and re-link runs (sorted results, inclusive range
predicate, cell geometry), and randomized equivalence properties pinning
built topologies to the all-pairs oracles of
``tests/differential/reference.py`` -- same links, same neighbour order,
same dirty sets, same inclusive boundary behaviour -- because experiment
fingerprints depend on that byte-level agreement.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.network.links import within_range
from repro.network.spatial import neighbors_of
from repro.network.topology import (
    Topology,
    _unit_disk_adjacency,
    grid_topology,
    random_geometric_topology,
)

from ..differential.reference import (
    all_pairs_graph,
    brute_edges,
    full_rebuild_delta,
)

#: The two ways to move nodes: the production delta and the full-rebuild
#: oracle.  Both must match the all-pairs map and the exact dirty set.
DELTAS = {
    "spatial": Topology.with_positions_delta,
    "brute": full_rebuild_delta,
}


def ordered(adjacency):
    """An adjacency map as lists, so comparing two compares every order."""
    return [(nid, list(nbrs)) for nid, nbrs in adjacency.items()]


def all_pairs_neighbors(positions, nodes, radius):
    """Each of ``nodes``' neighbours by an all-pairs ``within_range`` scan."""
    return {
        nid: [
            other
            for other in sorted(positions)
            if other != nid
            and within_range(positions[nid], positions[other], radius)
        ]
        for nid in nodes
    }


def random_positions(rng, n, low, high, ids=None):
    ids = range(n) if ids is None else ids
    return {
        int(nid): (float(x), float(y))
        for nid, (x, y) in zip(ids, rng.uniform(low, high, (n, 2)))
    }


class TestSpatialHashContainer:
    """A full build's grid cells have the side of its radio range."""

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_cell_size_must_be_positive_finite(self, bad):
        with pytest.raises(ValueError):
            grid_topology(2, 2, comm_range=bad)

    def test_cell_for_uses_floor_on_negative_coordinates(self):
        # Floor, not truncation, puts -0.1 and 9.9 in two cells and -10.0
        # on the border of cell -1: every pair within 10 is still found.
        positions = {
            0: (-0.1, 0.1),
            1: (9.9, 0.1),
            2: (-10.0, -10.0),
            3: (-10.0, 0.0),
            4: (-19.99, 0.0),
            5: (0.0, 0.0),
        }
        got = neighbors_of(positions, sorted(positions), 10.0)
        assert got == {
            0: [1, 3, 5],
            1: [0, 5],
            2: [3],
            3: [0, 2, 4, 5],
            4: [3],
            5: [0, 1, 3],
        }
        assert got == all_pairs_neighbors(positions, sorted(positions), 10.0)


class TestSpatialHashQueries:
    def test_query_returns_sorted_ids(self):
        positions = {9: (1.0, 0.0), 2: (0.0, 1.0), 5: (1.0, 1.0), 0: (0.0, 0.0)}
        assert neighbors_of(positions, [0], 2.0) == {0: [2, 5, 9]}
        adjacency = _unit_disk_adjacency(positions, 2.0)
        assert list(adjacency) == [0, 2, 5, 9]
        assert list(adjacency[0]) == [2, 5, 9]

    def test_query_exclude_and_zero_radius(self):
        # A node is never its own neighbour, not even beside a twin.
        positions = {1: (0.0, 0.0), 2: (0.5, 0.0), 3: (0.0, 0.0)}
        assert neighbors_of(positions, [1, 3], 1.0) == {1: [2, 3], 3: [1, 2]}
        with pytest.raises(ValueError):
            neighbors_of(positions, [1], 0.0)

    def test_query_inclusive_at_exact_range(self):
        # 3-4-5 triangle: the distance is exactly representable, so the
        # inclusive predicate must include the boundary node.
        positions = {1: (0.0, 0.0), 2: (3.0, 4.0)}
        assert neighbors_of(positions, [1, 2], 5.0) == {1: [2], 2: [1]}
        assert neighbors_of(positions, [1], np.nextafter(5.0, 0.0)) == {1: []}
        assert ordered(_unit_disk_adjacency(positions, 5.0)) == [(1, [2]), (2, [1])]
        assert 1 in grid_topology(1, 2, spacing=5.0, comm_range=5.0).adjacency[0]

    def test_query_spans_cell_boundaries(self):
        # Nodes sitting exactly on cell borders are found from the
        # neighbouring cells, at exactly the range.
        positions = {0: (0.0, 0.0), 1: (10.0, 0.0), 2: (9.999, 0.0), 3: (20.0, 0.0)}
        assert neighbors_of(positions, sorted(positions), 10.0) == {
            0: [1, 2],
            1: [0, 2, 3],
            2: [0, 1],
            3: [1],
        }


class TestUnitDiskEquivalence:
    def test_edges_match_brute_force_randomized(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            n = int(rng.integers(2, 90))
            area = float(rng.uniform(10, 200))
            comm = float(rng.uniform(3, 90))
            positions = random_positions(rng, n, 0, area)
            adjacency = _unit_disk_adjacency(positions, comm)
            edges = [(a, b) for a, nbrs in adjacency.items() for b in nbrs if a < b]
            assert edges == brute_edges(positions, comm)

    def test_graph_builders_agree_including_adjacency_order(self):
        rng = np.random.default_rng(22)
        for _ in range(15):
            n = int(rng.integers(2, 80))
            comm = float(rng.uniform(5, 60))
            positions = random_positions(rng, n, 0, 100)
            # Neighbour *order* feeds broadcast fan-out order, which
            # feeds fingerprints -- it must match exactly.
            assert ordered(_unit_disk_adjacency(positions, comm)) == ordered(
                all_pairs_graph(positions, comm)
            )

    def test_grid_aligned_positions(self):
        # Nodes exactly on cell corners and cell-size-equal spacing: the
        # classic off-by-one window for floor-based hashing.
        positions = {
            i * 4 + j: (float(i * 10), float(j * 10))
            for i in range(4)
            for j in range(4)
        }
        assert ordered(_unit_disk_adjacency(positions, 10.0)) == ordered(
            all_pairs_graph(positions, 10.0)
        )


class TestNeighborsOf:
    """The vectorised batch query returns exactly the all-pairs answers."""

    def test_matches_all_pairs_randomized(self):
        rng = np.random.default_rng(51)
        for _ in range(25):
            n = int(rng.integers(2, 120))
            low = float(rng.uniform(-150, 0))
            high = low + float(rng.uniform(10, 200))
            radius = float(rng.uniform(3, 90))
            ids = sorted(int(i) for i in rng.choice(1000, n, replace=False))
            positions = random_positions(rng, n, low, high, ids)
            k = int(rng.integers(1, n + 1))
            nodes = sorted(int(i) for i in rng.choice(ids, k, replace=False))
            assert neighbors_of(positions, nodes, radius) == all_pairs_neighbors(
                positions, nodes, radius
            )

    def test_boundary_ties_and_coincident_nodes(self):
        # 3-4-5 ties across cell corners, and two nodes on one spot.
        positions = {
            0: (0.0, 0.0),
            1: (3.0, 4.0),
            2: (-3.0, -4.0),
            3: (5.0, 0.0),
            4: (0.0, 0.0),
            5: (10.0, 0.0),
            6: (np.nextafter(5.0, 6.0), 0.0),
        }
        got = neighbors_of(positions, [0, 3], 5.0)
        assert got == all_pairs_neighbors(positions, [0, 3], 5.0)
        assert got[0] == [1, 2, 3, 4]

    def test_results_follow_query_order_and_empty_query(self):
        positions = {7: (0.0, 0.0), 2: (1.0, 0.0), 9: (2.0, 0.0)}
        got = neighbors_of(positions, [9, 2], 1.5)
        assert list(got) == [9, 2]
        assert got == {9: [2], 2: [7, 9]}
        assert neighbors_of(positions, [], 1.5) == {}

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan")])
    def test_radius_must_be_positive_finite(self, bad):
        with pytest.raises(ValueError):
            neighbors_of({0: (0.0, 0.0)}, [0], bad)


class TestWithPositionsDelta:
    def _random_topology(self, seed, n=60):
        return random_geometric_topology(
            n, comm_range=30.0, area_size=120.0, rng=np.random.default_rng(seed)
        )

    @staticmethod
    def _random_moves(topo, rng, k):
        ids = sorted(topo.positions)
        chosen = rng.choice(len(ids), size=k, replace=False)
        return {
            ids[int(i)]: (float(rng.uniform(0, 120)), float(rng.uniform(0, 120)))
            for i in sorted(chosen)
        }

    def test_empty_updates_is_identity(self):
        topo = self._random_topology(1)
        new, dirty = topo.with_positions_delta({})
        assert new is topo and dirty == set()

    def test_unknown_node_rejected(self):
        topo = self._random_topology(2)
        with pytest.raises(KeyError, match="unknown nodes"):
            topo.with_positions_delta({999: (0.0, 0.0)})

    def test_requires_comm_range(self):
        topo = self._random_topology(3)
        bare = Topology(
            adjacency=topo.adjacency, positions=topo.positions, comm_range=None
        )
        with pytest.raises(ValueError, match="comm_range"):
            bare.with_positions_delta({0: (1.0, 1.0)})

    @pytest.mark.parametrize("method", sorted(DELTAS))
    def test_chained_moves_match_full_rebuild(self, method):
        topo = self._random_topology(5)
        positions = dict(topo.positions)
        rng = np.random.default_rng(17)
        for _ in range(12):
            updates = self._random_moves(topo, rng, int(rng.integers(1, 10)))
            topo, _ = DELTAS[method](topo, updates)
            positions.update(updates)
            assert ordered(topo.adjacency) == ordered(all_pairs_graph(positions, 30.0))

    @pytest.mark.parametrize("method", sorted(DELTAS))
    def test_dirty_set_is_exactly_the_changed_neighbourhoods(self, method):
        topo = self._random_topology(7)
        rng = np.random.default_rng(23)
        for _ in range(10):
            updates = self._random_moves(topo, rng, 4)
            old_neighbours = {nid: set(nbrs) for nid, nbrs in topo.adjacency.items()}
            topo, dirty = DELTAS[method](topo, updates)
            expected = {
                nid
                for nid, nbrs in topo.adjacency.items()
                if set(nbrs) != old_neighbours[nid]
            }
            assert dirty == expected

    def test_delta_shares_every_unchanged_adjacency(self):
        topo = self._random_topology(11)
        rng = np.random.default_rng(43)
        for _ in range(8):
            updates = self._random_moves(topo, rng, 8)
            old_adj = topo.adjacency
            snapshot = ordered(old_adj)
            new, dirty = topo.with_positions_delta(updates)
            assert dirty
            new_adj = new.adjacency
            assert list(new_adj) == list(old_adj)
            for nid in new_adj:
                assert (new_adj[nid] is old_adj[nid]) == (nid not in dirty), nid
            # The source topology is untouched.
            assert topo.adjacency is old_adj
            assert ordered(old_adj) == snapshot
            topo = new

    def test_delta_that_changes_no_link_reuses_the_graph(self):
        topo = self._random_topology(13)
        x, y = topo.positions[5]
        new, dirty = topo.with_positions_delta({5: (x, y)})
        assert dirty == set()
        assert new.adjacency is topo.adjacency
        assert new is not topo

    def test_methods_agree_on_dirty_and_graph(self):
        topo = self._random_topology(9)
        updates = self._random_moves(topo, np.random.default_rng(31), 6)
        spatial_topo, spatial_dirty = topo.with_positions_delta(updates)
        brute_topo, brute_dirty = full_rebuild_delta(topo, updates)
        assert spatial_dirty == brute_dirty
        assert ordered(spatial_topo.adjacency) == ordered(brute_topo.adjacency)


class TestInclusiveRangeContract:
    def test_three_four_five_tie_is_inclusive(self):
        assert within_range((0.0, 0.0), (3.0, 4.0), 5.0)
        assert not within_range(
            (0.0, 0.0), (3.0, 4.0), np.nextafter(5.0, 0.0)
        )

    def test_predicate_matches_numpy_rounding(self):
        # The predicate must round exactly like numpy (same
        # sqrt(dx*dx + dy*dy) evaluation order), or the scalar oracle and
        # the vectorised neighbors_of would disagree on knife-edge pairs.
        rng = np.random.default_rng(41)
        pts = rng.uniform(0, 100, (200, 2))
        comm = 30.0
        for (ax, ay), (bx, by) in zip(pts[:100], pts[100:]):
            diff = np.array([ax, ay]) - np.array([bx, by])
            numpy_dist = float(np.sqrt((diff**2).sum()))
            assert within_range((ax, ay), (bx, by), comm) == (
                numpy_dist <= comm
            )

    def test_zero_range_requires_coincidence(self):
        assert within_range((1.0, 1.0), (1.0, 1.0), 0.0)
        assert not within_range((1.0, 1.0), (1.0, 1.0000001), 0.0)
