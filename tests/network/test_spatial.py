"""Tests for the grid-bucket spatial hash (``repro.network.spatial``).

Two layers: unit tests of the ``SpatialHash`` container contract
(deterministic sorted drains, inclusive range predicate, cell geometry)
and randomized equivalence properties pinning the spatial neighbour
derivation to the all-pairs oracles of ``tests/differential/reference.py``
-- same edge sets, same adjacency insertion order, same dirty sets, same
inclusive boundary behaviour -- because experiment fingerprints depend on
that byte-level agreement.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.network.links import within_range
from repro.network.spatial import SpatialHash, neighbors_of, unit_disk_edges
from repro.network.topology import (
    Topology,
    _unit_disk_graph,
    random_geometric_topology,
)

from ..differential.reference import (
    all_pairs_graph,
    brute_edges,
    full_rebuild_delta,
)

#: The two ways to move nodes: the production delta and the full-rebuild
#: oracle.  Both must match the all-pairs graph and the exact dirty set.
DELTAS = {
    "spatial": Topology.with_positions_delta,
    "brute": full_rebuild_delta,
}


class TestSpatialHashContainer:
    def test_insert_len_contains_position(self):
        grid = SpatialHash(cell_size=10.0)
        assert len(grid) == 0 and 1 not in grid
        grid.insert(1, (3.0, 4.0))
        assert len(grid) == 1 and 1 in grid
        assert grid.position(1) == (3.0, 4.0)

    def test_duplicate_insert_rejected(self):
        grid = SpatialHash({1: (0.0, 0.0)}, cell_size=5.0)
        with pytest.raises(ValueError, match="already indexed"):
            grid.insert(1, (1.0, 1.0))

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_cell_size_must_be_positive_finite(self, bad):
        with pytest.raises(ValueError):
            SpatialHash(cell_size=bad)

    def test_cell_for_uses_floor_on_negative_coordinates(self):
        grid = SpatialHash(cell_size=10.0)
        assert grid.cell_for((-0.1, 0.1)) == (-1, 0)
        assert grid.cell_for((-10.0, -10.0)) == (-1, -1)
        assert grid.cell_for((0.0, 0.0)) == (0, 0)

    def test_bulk_init_matches_per_node_insert(self):
        rng = np.random.default_rng(3)
        positions = {
            int(i): (float(x), float(y))
            for i, (x, y) in enumerate(rng.uniform(-50, 50, (40, 2)))
        }
        bulk = SpatialHash(positions, cell_size=7.5)
        singly = SpatialHash(cell_size=7.5)
        for nid in sorted(positions):
            singly.insert(nid, positions[nid])
        assert list(bulk.items()) == list(singly.items())
        assert bulk.cells() == singly.cells()

    def test_sorted_drain_order(self):
        grid = SpatialHash(
            {5: (25.0, 5.0), 1: (5.0, 5.0), 3: (5.0, 6.0)}, cell_size=10.0
        )
        cells = grid.cells()
        assert cells == sorted(cells)
        assert grid.bucket((0, 0)) == [1, 3]
        drained = list(grid.items())
        assert [cell for cell, _ in drained] == cells
        assert all(members == sorted(members) for _, members in drained)


class TestSpatialHashQueries:
    def test_query_returns_sorted_ids(self):
        grid = SpatialHash(
            {9: (1.0, 0.0), 2: (0.0, 1.0), 5: (1.0, 1.0)}, cell_size=3.0
        )
        assert grid.query((0.0, 0.0), 2.0) == [2, 5, 9]

    def test_query_exclude_and_zero_radius(self):
        grid = SpatialHash({1: (0.0, 0.0), 2: (0.5, 0.0)}, cell_size=2.0)
        assert grid.query((0.0, 0.0), 1.0, exclude=1) == [2]
        assert grid.query((0.0, 0.0), 0.0) == [1]

    def test_query_inclusive_at_exact_range(self):
        # 3-4-5 triangle: the distance is exactly representable, so the
        # inclusive predicate must include the boundary node.
        grid = SpatialHash({1: (0.0, 0.0), 2: (3.0, 4.0)}, cell_size=5.0)
        assert grid.query((0.0, 0.0), 5.0) == [1, 2]
        assert grid.neighbors_within(1, 5.0) == [2]
        assert grid.query((0.0, 0.0), np.nextafter(5.0, 0.0)) == [1]

    def test_query_spans_cell_boundaries(self):
        # Node sitting exactly on a cell border must be found from the
        # neighbouring cell's perspective.
        grid = SpatialHash({1: (10.0, 0.0), 2: (9.999, 0.0)}, cell_size=10.0)
        assert grid.cell_for((10.0, 0.0)) == (1, 0)
        assert grid.query((0.5, 0.0), 9.6) == [1, 2]

    def test_query_radius_larger_than_cell(self):
        rng = np.random.default_rng(11)
        positions = {
            int(i): (float(x), float(y))
            for i, (x, y) in enumerate(rng.uniform(0, 100, (60, 2)))
        }
        grid = SpatialHash(positions, cell_size=4.0)
        centre = (50.0, 50.0)
        expected = sorted(
            nid
            for nid, pos in positions.items()
            if within_range(centre, pos, 37.0)
        )
        assert grid.query(centre, 37.0) == expected


class TestUnitDiskEquivalence:
    def test_edges_match_brute_force_randomized(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            n = int(rng.integers(2, 90))
            area = float(rng.uniform(10, 200))
            comm = float(rng.uniform(3, 90))
            positions = {
                int(i): (float(x), float(y))
                for i, (x, y) in enumerate(rng.uniform(0, area, (n, 2)))
            }
            assert unit_disk_edges(positions, comm) == brute_edges(
                positions, comm
            )

    def test_graph_builders_agree_including_adjacency_order(self):
        rng = np.random.default_rng(22)
        for _ in range(15):
            n = int(rng.integers(2, 80))
            comm = float(rng.uniform(5, 60))
            positions = {
                int(i): (float(x), float(y))
                for i, (x, y) in enumerate(rng.uniform(0, 100, (n, 2)))
            }
            spatial = _unit_disk_graph(positions, comm)
            brute = all_pairs_graph(positions, comm)
            assert list(spatial.nodes) == list(brute.nodes)
            assert sorted(spatial.edges) == sorted(brute.edges)
            for node in spatial.nodes:
                # Adjacency *order* feeds broadcast fan-out order, which
                # feeds fingerprints -- it must match exactly.
                assert list(spatial[node]) == list(brute[node])

    def test_shared_edge_attribute_invariant(self):
        positions = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (0.0, 1.0)}
        g = _unit_disk_graph(positions, 2.0)
        for a, b in g.edges:
            assert g[a][b] is g[b][a]

    def test_grid_aligned_positions(self):
        # Nodes exactly on cell corners and cell-size-equal spacing: the
        # classic off-by-one window for floor-based hashing.
        positions = {
            i * 4 + j: (float(i * 10), float(j * 10))
            for i in range(4)
            for j in range(4)
        }
        assert unit_disk_edges(positions, 10.0) == brute_edges(
            positions, 10.0
        )


class TestNeighborsOf:
    """The vectorised batch query returns exactly the hash's answers."""

    @staticmethod
    def _by_hash(positions, nodes, radius):
        grid = SpatialHash(positions, cell_size=radius)
        return {nid: grid.neighbors_within(nid, radius) for nid in nodes}

    def test_matches_the_hash_randomized(self):
        rng = np.random.default_rng(51)
        for _ in range(25):
            n = int(rng.integers(2, 120))
            low = float(rng.uniform(-150, 0))
            high = low + float(rng.uniform(10, 200))
            radius = float(rng.uniform(3, 90))
            ids = sorted(int(i) for i in rng.choice(1000, n, replace=False))
            positions = {
                nid: (float(x), float(y))
                for nid, (x, y) in zip(ids, rng.uniform(low, high, (n, 2)))
            }
            k = int(rng.integers(1, n + 1))
            nodes = sorted(int(i) for i in rng.choice(ids, k, replace=False))
            assert neighbors_of(positions, nodes, radius) == self._by_hash(
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
        assert got == self._by_hash(positions, [0, 3], 5.0)
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
            graph=topo.graph, positions=topo.positions, comm_range=None
        )
        with pytest.raises(ValueError, match="comm_range"):
            bare.with_positions_delta({0: (1.0, 1.0)})

    @pytest.mark.parametrize("method", sorted(DELTAS))
    def test_chained_moves_match_full_rebuild(self, method):
        topo = self._random_topology(5)
        reference = topo
        rng = np.random.default_rng(17)
        for _ in range(12):
            ids = sorted(topo.positions)
            k = int(rng.integers(1, 10))
            chosen = rng.choice(len(ids), size=k, replace=False)
            updates = {
                ids[int(i)]: (
                    float(rng.uniform(0, 120)),
                    float(rng.uniform(0, 120)),
                )
                for i in sorted(chosen)
            }
            topo, _ = DELTAS[method](topo, updates)
            moved_positions = {
                nid: updates.get(nid, pos)
                for nid, pos in reference.positions.items()
            }
            reference = Topology(
                graph=all_pairs_graph(moved_positions, 30.0),
                positions=moved_positions,
                comm_range=30.0,
            )
            assert sorted(topo.graph.edges) == sorted(reference.graph.edges)
            for node in topo.graph.nodes:
                assert list(topo.graph[node]) == list(reference.graph[node])

    @pytest.mark.parametrize("method", sorted(DELTAS))
    def test_dirty_set_is_exactly_the_changed_neighbourhoods(self, method):
        topo = self._random_topology(7)
        rng = np.random.default_rng(23)
        for _ in range(10):
            ids = sorted(topo.positions)
            chosen = rng.choice(len(ids), size=4, replace=False)
            updates = {
                ids[int(i)]: (
                    float(rng.uniform(0, 120)),
                    float(rng.uniform(0, 120)),
                )
                for i in sorted(chosen)
            }
            old_neighbours = {
                nid: set(topo.graph.neighbors(nid)) for nid in topo.graph
            }
            topo, dirty = DELTAS[method](topo, updates)
            expected = {
                nid
                for nid in topo.graph
                if set(topo.graph.neighbors(nid)) != old_neighbours[nid]
            }
            assert dirty == expected

    def test_delta_shares_every_unchanged_adjacency(self):
        topo = self._random_topology(11)
        rng = np.random.default_rng(43)
        for _ in range(8):
            ids = sorted(topo.positions)
            chosen = rng.choice(len(ids), size=8, replace=False)
            updates = {
                ids[int(i)]: (
                    float(rng.uniform(0, 120)),
                    float(rng.uniform(0, 120)),
                )
                for i in sorted(chosen)
            }
            old_adj = topo.graph._adj
            snapshot = {
                nid: [(b, attrs) for b, attrs in nbrs.items()]
                for nid, nbrs in old_adj.items()
            }
            new, dirty = topo.with_positions_delta(updates)
            assert dirty
            new_adj = new.graph._adj
            assert list(new_adj) == list(old_adj)
            for nid in new_adj:
                assert (new_adj[nid] is old_adj[nid]) == (nid not in dirty), nid
            for a, b in new.graph.edges:
                assert new_adj[a][b] is new_adj[b][a]
                if b in old_adj[a]:
                    assert new_adj[a][b] is old_adj[a][b]
            # The source topology is untouched, down to the attribute dicts.
            assert topo.graph._adj is old_adj
            for nid, pairs in snapshot.items():
                now = list(old_adj[nid].items())
                assert [b for b, _ in now] == [b for b, _ in pairs]
                assert all(x is y for (_, x), (_, y) in zip(now, pairs))
            topo = new

    def test_delta_that_changes_no_link_reuses_the_graph(self):
        topo = self._random_topology(13)
        x, y = topo.positions[5]
        new, dirty = topo.with_positions_delta({5: (x, y)})
        assert dirty == set()
        assert new.graph is topo.graph
        assert new is not topo

    def test_methods_agree_on_dirty_and_graph(self):
        topo = self._random_topology(9)
        rng = np.random.default_rng(31)
        ids = sorted(topo.positions)
        chosen = rng.choice(len(ids), size=6, replace=False)
        updates = {
            ids[int(i)]: (float(rng.uniform(0, 120)), float(rng.uniform(0, 120)))
            for i in sorted(chosen)
        }
        spatial_topo, spatial_dirty = topo.with_positions_delta(updates)
        brute_topo, brute_dirty = full_rebuild_delta(topo, updates)
        assert spatial_dirty == brute_dirty
        assert sorted(spatial_topo.graph.edges) == sorted(
            brute_topo.graph.edges
        )
        for node in spatial_topo.graph.nodes:
            assert list(spatial_topo.graph[node]) == list(
                brute_topo.graph[node]
            )


class TestInclusiveRangeContract:
    def test_three_four_five_tie_is_inclusive(self):
        assert within_range((0.0, 0.0), (3.0, 4.0), 5.0)
        assert not within_range(
            (0.0, 0.0), (3.0, 4.0), np.nextafter(5.0, 0.0)
        )

    def test_predicate_matches_numpy_rounding(self):
        # The predicate must round exactly like numpy (same
        # sqrt(dx*dx + dy*dy) evaluation order), or the scalar hash and the
        # vectorised neighbors_of would disagree on knife-edge pairs.
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
