"""Property-based tests for the analytical model and spanning-tree invariants."""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analytical import (
    build_kary_tree,
    dirq_total_cost,
    f_max,
    flooding_cost,
    flooding_cost_by_enumeration,
    max_query_cost_by_enumeration,
    max_query_dissemination_cost,
    max_update_cost,
    max_update_cost_by_enumeration,
    tree_num_leaves,
    tree_num_links,
    tree_num_nodes,
)
from repro.network.spanning_tree import build_bfs_tree

from ..helpers import topology_from_edges

small_k = st.integers(min_value=2, max_value=5)
small_d = st.integers(min_value=1, max_value=4)


class TestAnalyticalProperties:
    @given(k=small_k, d=small_d)
    @settings(max_examples=60, deadline=None)
    def test_closed_forms_agree_with_enumeration(self, k, d):
        """Equations (3)-(6) equal brute-force costs on the explicit tree."""
        tree = build_kary_tree(k, d)
        assert flooding_cost(k, d) == flooding_cost_by_enumeration(tree)
        assert max_query_dissemination_cost(k, d) == max_query_cost_by_enumeration(tree)
        assert max_update_cost(k, d) == max_update_cost_by_enumeration(tree)

    @given(k=small_k, d=small_d)
    @settings(max_examples=60, deadline=None)
    def test_tree_counts_consistent(self, k, d):
        assert tree_num_nodes(k, d) == tree_num_links(k, d) + 1
        assert tree_num_leaves(k, d) <= tree_num_nodes(k, d)
        assert tree_num_nodes(k, d) == sum(k**i for i in range(d + 1))

    @given(k=small_k, d=small_d)
    @settings(max_examples=60, deadline=None)
    def test_fmax_is_the_breakeven_frequency(self, k, d):
        """C_TD(f_max) == C_F, below is cheaper, above is more expensive."""
        fm = f_max(k, d)
        assert fm > 0
        assert abs(dirq_total_cost(k, d, fm) - flooding_cost(k, d)) < 1e-9
        assert dirq_total_cost(k, d, fm * 0.9) < flooding_cost(k, d)
        assert dirq_total_cost(k, d, fm * 1.1) > flooding_cost(k, d)

    @given(k=small_k, d=small_d)
    @settings(max_examples=60, deadline=None)
    def test_directed_dissemination_never_exceeds_flooding(self, k, d):
        """Even in the worst case (every leaf relevant) C_QD_max < C_F."""
        assert max_query_dissemination_cost(k, d) < flooding_cost(k, d)


def random_connected_graph(draw):
    """Build a random connected graph via a random tree plus extra edges."""
    n = draw(st.integers(min_value=2, max_value=20))
    parent_choices = [draw(st.integers(min_value=0, max_value=i - 1)) for i in range(1, n)]
    edges = {
        (parent, child) for child, parent in enumerate(parent_choices, start=1)
    }
    extra = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=15
    ))
    edges.update((min(a, b), max(a, b)) for a, b in extra if a != b)
    positions = {i: (float(i), 0.0) for i in range(n)}
    return topology_from_edges(positions, sorted(edges))


connected_topologies = st.builds(lambda: None).flatmap(
    lambda _: st.composite(lambda draw: random_connected_graph(draw))()
)


class TestSpanningTreeProperties:
    @given(topo=connected_topologies)
    @settings(max_examples=100, deadline=None)
    def test_bfs_tree_spans_every_node_without_cycles(self, topo):
        tree = build_bfs_tree(topo, root=0)
        assert sorted(tree.node_ids) == topo.node_ids
        # Exactly n-1 parent links and every non-root path reaches the root.
        non_root = [n for n in tree.node_ids if n != 0]
        assert all(tree.parent_of(n) is not None for n in non_root)
        for node in tree.node_ids:
            path = tree.path_to_root(node)
            assert path[-1] == 0
            assert len(path) == len(set(path))  # no cycles

    @given(topo=connected_topologies)
    @settings(max_examples=100, deadline=None)
    def test_tree_depths_are_shortest_path_lengths(self, topo):
        tree = build_bfs_tree(topo, root=0)
        graph = nx.from_dict_of_lists(topo.adjacency)
        lengths = nx.single_source_shortest_path_length(graph, 0)
        for node in tree.node_ids:
            assert tree.depth_of(node) == lengths[node]

    @given(topo=connected_topologies)
    @settings(max_examples=100, deadline=None)
    def test_forwarding_set_is_union_of_paths(self, topo):
        tree = build_bfs_tree(topo, root=0)
        sources = [n for n in tree.node_ids if n % 3 == 1]
        involved = tree.forwarding_set(sources)
        expected = set()
        for s in sources:
            expected.update(tree.path_to_root(s))
        assert involved == expected

    @given(topo=connected_topologies, victim=st.integers(min_value=1, max_value=19))
    @settings(max_examples=100, deadline=None)
    def test_repair_preserves_tree_invariants(self, topo, victim):
        if victim not in topo.node_ids:
            return
        tree = build_bfs_tree(topo, root=0)
        alive = set(topo.node_ids) - {victim}
        repaired = tree.repair(topo, alive)
        assert victim not in repaired
        assert repaired.root == 0
        graph = nx.from_dict_of_lists(topo.adjacency)
        depth = nx.single_source_shortest_path_length(graph.subgraph(alive), 0)
        # Exactly the survivors the root can still reach stay attached.
        assert set(repaired.node_ids) == set(depth)
        for node in repaired.node_ids:
            parent = repaired.parent_of(node)
            if parent is None:
                continue
            # Every parent is a surviving radio neighbour one level up, and
            # a parent that still qualifies is kept.
            assert parent in topo.adjacency[node]
            assert depth[parent] == depth[node] - 1
            old = tree.parent_of(node)
            if old in alive and depth.get(old) == depth[node] - 1:
                assert parent == old
