"""Tests for the one spanning-tree rule (``build_bfs_tree`` with ``previous``).

The rule builds the initial tree and carries it over every kill, revival
and mobility re-link:

* a node's depth is its BFS hop count over the alive nodes the root can
  reach, and alive nodes the root cannot reach are left out;
* a node keeps its previous parent while that parent is an alive radio
  neighbour one level up;
* otherwise it takes the neighbour one level up whose root path sorts
  first.

The oracle below evaluates that definition directly, with root paths as
id tuples, so the ranked implementation is checked against the words of
the rule rather than against itself.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

import networkx as nx
import numpy as np
import pytest

from repro.network.addresses import NodeId
from repro.network.spanning_tree import SpanningTree, TreeError, build_bfs_tree
from repro.network.topology import Topology, random_geometric_topology
from repro.scenarios.models import rebuild_spanning_tree

AREA = 120.0


def make_topology(seed: int, n: int = 60, area: float = AREA) -> Topology:
    return random_geometric_topology(
        n, comm_range=30.0, area_size=area, rng=np.random.default_rng(seed)
    )


def bfs_depths(topology: Topology, members: Set[NodeId], root: NodeId = 0):
    """Hop counts from ``root`` over the subgraph induced by ``members``."""
    graph = nx.from_dict_of_lists(topology.adjacency)
    return nx.single_source_shortest_path_length(
        graph.subgraph(members | {root}), root
    )


def oracle_parents(
    topology: Topology,
    alive: Optional[Set[NodeId]] = None,
    previous: Optional[SpanningTree] = None,
    root: NodeId = 0,
) -> Dict[NodeId, Optional[NodeId]]:
    """The rule evaluated from its definition, root paths as id tuples."""
    members = set(topology.node_ids) if alive is None else set(alive)
    depth = bfs_depths(topology, members, root)
    parent: Dict[NodeId, Optional[NodeId]] = {root: None}
    path: Dict[NodeId, Tuple[NodeId, ...]] = {root: (root,)}
    for node in sorted(depth, key=lambda n: (depth[n], n)):
        if node == root:
            continue
        up = [u for u in topology.adjacency[node] if depth.get(u) == depth[node] - 1]
        old = previous.parent.get(node) if previous is not None else None
        parent[node] = old if old in up else min(up, key=lambda u: path[u])
        path[node] = path[parent[node]] + (node,)
    return parent


def assert_rule_invariants(
    tree: SpanningTree,
    topology: Topology,
    alive: Set[NodeId],
    previous: Optional[SpanningTree] = None,
) -> None:
    depth = bfs_depths(topology, alive)
    # Exactly the alive nodes the root can reach are in the tree.
    assert set(tree.parent) == set(depth)
    for node, par in tree.parent.items():
        if node == tree.root:
            continue
        # Every parent is an alive radio neighbour exactly one level up.
        assert par in alive and par in topology.adjacency[node]
        assert depth[par] == depth[node] - 1
        if previous is not None and node in previous:
            old = previous.parent_of(node)
            still_qualifies = (
                old is not None
                and depth.get(old) == depth[node] - 1
                and old in topology.adjacency[node]
            )
            if still_qualifies:
                assert par == old, f"node {node} dropped a parent that qualifies"


def random_moves(rng, topology: Topology, count: int) -> Dict[NodeId, Tuple[float, float]]:
    ids = sorted(topology.positions)
    chosen = rng.choice(len(ids), size=count, replace=False)
    return {
        ids[int(i)]: (float(rng.uniform(0, AREA)), float(rng.uniform(0, AREA)))
        for i in sorted(chosen)
        if ids[int(i)] != 0
    }


def carry_over(tree, topology, alive):
    """One rule step, checked against the invariants and the oracle."""
    new = build_bfs_tree(topology, 0, alive, partial=True, previous=tree)
    assert_rule_invariants(new, topology, alive, previous=tree)
    assert new.parent == oracle_parents(topology, alive, previous=tree)
    return new


class TestNoPrevious:
    @pytest.mark.parametrize("seed", range(40))
    def test_previous_none_matches_the_root_path_oracle(self, seed):
        rng = np.random.default_rng(seed)
        topo = make_topology(seed, n=int(rng.integers(5, 90)))
        alive = None
        if seed % 2:
            alive = {n for n in topo.node_ids if rng.random() > 0.2} | {0}
        tree = build_bfs_tree(topo, root=0, alive=alive, partial=True)
        assert tree.parent == oracle_parents(topo, alive)

    def test_unreachable_nodes_raise_when_not_partial(self):
        positions = {0: (0.0, 0.0), 1: (25.0, 0.0), 2: (200.0, 200.0)}
        topo = make_topology(1, n=3).with_positions_delta(positions)[0]
        with pytest.raises(TreeError, match=r"unreachable nodes: \[2\]"):
            build_bfs_tree(topo, root=0, partial=False)
        previous = build_bfs_tree(topo, root=0, partial=True)
        with pytest.raises(TreeError, match=r"unreachable nodes: \[2\]"):
            build_bfs_tree(topo, root=0, partial=False, previous=previous)


class TestRandomSequences:
    @pytest.mark.parametrize("seed", [2, 11, 29])
    def test_random_move_sequences(self, seed):
        topo = make_topology(seed)
        alive = set(topo.positions)
        tree = build_bfs_tree(topo, root=0, alive=alive, partial=True)
        rng = np.random.default_rng(seed + 100)
        for _ in range(12):
            moves = random_moves(rng, topo, int(rng.integers(1, 8)))
            topo, _ = topo.with_positions_delta(moves)
            tree = carry_over(tree, topo, alive)

    @pytest.mark.parametrize("seed", [5, 19])
    def test_mixed_move_kill_revive_sequences(self, seed):
        topo = make_topology(seed)
        alive = set(topo.positions)
        dead: set = set()
        tree = build_bfs_tree(topo, root=0, alive=alive, partial=True)
        rng = np.random.default_rng(seed + 7)
        for step in range(30):
            action = step % 3
            if action == 0:
                topo, _ = topo.with_positions_delta(random_moves(rng, topo, 4))
            elif action == 1:
                candidates = sorted(alive - {0})
                victim = candidates[int(rng.integers(len(candidates)))]
                alive.discard(victim)
                dead.add(victim)
            elif dead:
                back = sorted(dead)[int(rng.integers(len(dead)))]
                dead.discard(back)
                alive.add(back)
            tree = carry_over(tree, topo, alive)

    def test_moving_every_node_keeps_the_invariants(self):
        topo = make_topology(6)
        alive = set(topo.positions)
        tree = build_bfs_tree(topo, root=0, alive=alive, partial=True)
        rng = np.random.default_rng(9)
        moves = random_moves(rng, topo, len(topo.positions))
        assert len(moves) == len(alive) - 1
        moved, _ = topo.with_positions_delta(moves)
        carry_over(tree, moved, alive)


class TestHandPicked:
    def test_single_move_gaining_root_edge(self):
        positions = {
            0: (0.0, 0.0),
            1: (25.0, 0.0),
            2: (50.0, 0.0),
            3: (75.0, 0.0),
        }
        topo = make_topology(1, n=4).with_positions_delta(positions)[0]
        tree = build_bfs_tree(topo, root=0, partial=True)
        assert tree.parent[3] == 2
        moved, _ = topo.with_positions_delta({3: (10.0, 10.0)})
        repaired = tree.repair(moved, {0, 1, 2, 3})
        # Node 3 is now one hop from the root: its old parent is no longer
        # one level up, so it must re-parent.
        assert repaired.parent[3] == 0

    def test_a_parent_that_still_qualifies_is_kept(self):
        # 0 -- 1 -- 3 and 0 -- 2 -- 3.  Node 1 starts dead, so node 3
        # hangs under node 2.
        positions = {
            0: (0.0, 0.0),
            1: (20.0, 10.0),
            2: (20.0, -10.0),
            3: (40.0, 0.0),
        }
        topo = make_topology(1, n=4).with_positions_delta(positions)[0]
        tree = build_bfs_tree(topo, root=0, alive={0, 2, 3}, partial=True)
        assert tree.parent[3] == 2
        revived = tree.repair(topo, {0, 1, 2, 3})
        # Node 1's root path (0, 1) sorts before node 2's, and a fresh
        # build picks it, but node 3's parent is still an alive neighbour
        # one level up, so it stays.
        assert revived.parent == {0: None, 1: 0, 2: 0, 3: 2}
        assert build_bfs_tree(topo, root=0).parent[3] == 1

    def test_partition_and_reconnect(self):
        positions = {
            0: (0.0, 0.0),
            1: (25.0, 0.0),
            2: (50.0, 0.0),
            3: (60.0, 10.0),
        }
        topo = make_topology(1, n=4).with_positions_delta(positions)[0]
        alive = {0, 1, 2, 3}
        tree = build_bfs_tree(topo, root=0, alive=alive, partial=True)
        alive.discard(1)
        cut = tree.repair(topo, alive)
        assert set(cut.parent) == {0}
        alive.add(1)
        healed = cut.repair(topo, alive)
        assert healed.parent == build_bfs_tree(topo, root=0).parent

    def test_no_change_returns_equal_tree(self):
        topo = make_topology(8)
        tree = build_bfs_tree(topo, root=0, partial=True)
        assert tree.repair(topo, set(topo.node_ids)).parent == tree.parent


class TestRebuildSpanningTree:
    def test_with_previous_is_the_repair(self):
        topo = make_topology(12)
        alive = set(topo.positions)
        tree = build_bfs_tree(topo, root=0, alive=alive, partial=True)
        moved, _ = topo.with_positions_delta({sorted(topo.positions)[5]: (10.0, 90.0)})
        via_rebuild = rebuild_spanning_tree(moved, alive, 0, previous=tree)
        assert via_rebuild.parent == tree.repair(moved, alive).parent

    def test_without_previous_is_the_full_build(self):
        topo = make_topology(13)
        alive = set(topo.positions)
        assert (
            rebuild_spanning_tree(topo, alive, 0).parent
            == build_bfs_tree(topo, root=0, alive=alive, partial=True).parent
        )


class TestValidation:
    def test_cycle_detected(self):
        with pytest.raises(TreeError, match="cycle detected through node"):
            SpanningTree(root=0, parent={0: None, 1: 2, 2: 1})

    def test_two_node_cycle_detected(self):
        with pytest.raises(TreeError, match="cycle detected through node"):
            SpanningTree(root=0, parent={0: None, 1: 0, 2: 3, 3: 2})

    def test_non_root_without_parent_rejected(self):
        with pytest.raises(TreeError, match="has no parent"):
            SpanningTree(root=0, parent={0: None, 1: None})

    def test_unknown_parent_rejected(self):
        with pytest.raises(TreeError, match="unknown parent"):
            SpanningTree(root=0, parent={0: None, 1: 99})

    def test_large_valid_tree_validates(self):
        # The memoized validator must accept a deep valid tree (and stay
        # O(n): a 2000-node path would time out under O(n * depth)).
        n = 2000
        parent = {0: None}
        parent.update({i: i - 1 for i in range(1, n)})
        tree = SpanningTree(root=0, parent=parent)
        assert tree.parent[n - 1] == n - 2
