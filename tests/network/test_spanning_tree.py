"""Tests for spanning-tree construction, traversal, and repair."""

import networkx as nx
import pytest

from repro.network.spanning_tree import SpanningTree, TreeError, build_bfs_tree

from ..helpers import topology_from_edges


class TestConstruction:
    def test_bfs_tree_over_line(self, line5):
        tree = build_bfs_tree(line5, root=0)
        assert tree.parent_of(0) is None
        assert tree.parent_of(3) == 2
        assert tree.children(0) == [1]
        assert tree.depth == 4

    def test_bfs_tree_over_star(self, star4):
        tree = build_bfs_tree(star4, root=0)
        assert tree.children(0) == [1, 2, 3, 4]
        assert tree.depth == 1
        assert tree.max_branching == 4

    def test_all_topology_nodes_present(self, small_topology):
        tree = build_bfs_tree(small_topology, root=0)
        assert sorted(tree.node_ids) == small_topology.node_ids

    def test_tree_edges_are_topology_links(self, small_topology):
        tree = build_bfs_tree(small_topology, root=0)
        for node in tree.node_ids:
            parent = tree.parent_of(node)
            if parent is not None:
                assert parent in small_topology.adjacency[node]

    def test_bfs_paths_are_shortest(self, small_topology):
        tree = build_bfs_tree(small_topology, root=0)
        graph = nx.from_dict_of_lists(small_topology.adjacency)
        lengths = nx.single_source_shortest_path_length(graph, 0)
        for node in tree.node_ids:
            assert tree.depth_of(node) == lengths[node]

    def test_unknown_root_raises(self, line5):
        with pytest.raises(KeyError):
            build_bfs_tree(line5, root=99)

    def test_invalid_parent_maps_rejected(self):
        with pytest.raises(TreeError):
            SpanningTree(root=0, parent={0: None, 1: 2, 2: 1})  # cycle
        with pytest.raises(TreeError):
            SpanningTree(root=0, parent={0: 1, 1: None})  # root has a parent
        with pytest.raises(TreeError):
            SpanningTree(root=0, parent={0: None, 1: 99})  # unknown parent


class TestTraversal:
    @pytest.fixture
    def tree(self, line5):
        return build_bfs_tree(line5, root=0)

    def test_path_to_root(self, tree):
        assert tree.path_to_root(4) == [4, 3, 2, 1, 0]
        assert tree.path_to_root(0) == [0]

    def test_leaves(self, tree):
        assert tree.leaves == [4]

    def test_forwarding_set_includes_intermediates_and_root(self, tree):
        involved = tree.forwarding_set([4])
        assert involved == {0, 1, 2, 3, 4}

    def test_forwarding_set_of_multiple_sources(self, star4):
        tree = build_bfs_tree(star4, root=0)
        assert tree.forwarding_set([2, 3]) == {0, 2, 3}


class TestRepair:
    def test_repair_reattaches_orphans_through_surviving_links(self):
        # 0 - 1 - 2 and 0 - 3 - 2: killing 1 must reattach 2 via 3.
        topo = topology_from_edges(
            {0: (0, 0), 1: (1, 0), 2: (2, 0), 3: (1, 1)},
            [(0, 1), (1, 2), (0, 3), (3, 2)],
        )
        tree = build_bfs_tree(topo, root=0)
        assert tree.parent_of(2) == 1

        repaired = tree.repair(topo, {0, 2, 3})
        assert 1 not in repaired
        assert repaired.parent_of(2) == 3
        assert repaired.parent_of(3) == 0

    def test_repair_drops_partitioned_nodes(self, line5):
        tree = build_bfs_tree(line5, root=0)
        repaired = tree.repair(line5, {0, 1, 3, 4})
        # Nodes 3 and 4 can only reach the root through node 2: partitioned.
        assert 3 not in repaired
        assert 4 not in repaired
        assert sorted(repaired.node_ids) == [0, 1]

    def test_repair_of_root_is_rejected(self, line5):
        tree = build_bfs_tree(line5, root=0)
        with pytest.raises(TreeError):
            tree.repair(line5, {1, 2, 3, 4})

    def test_with_new_node(self, line5):
        tree = build_bfs_tree(line5, root=0)
        grown = tree.with_new_node(10, attach_to=2)
        assert grown.parent_of(10) == 2
        assert 10 in grown.children(2)
        with pytest.raises(TreeError):
            grown.with_new_node(10, attach_to=0)
