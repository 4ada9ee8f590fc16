"""Tests for the flooding baseline and its §5.1 cost properties."""

import pytest

from repro.core.analytical import flooding_cost_general
from repro.core.messages import RangeQuery
from repro.workload.ground_truth import evaluate_query

from ..helpers import (
    build_mini_world,
    constant_dataset,
    line_topology,
    star_topology,
    topology_from_edges,
)


def make_flood_world(topology, values):
    data = constant_dataset(topology.node_ids, values, num_epochs=30)
    return build_mini_world(topology, data, protocol="flooding")


class TestFloodingDelivery:
    def test_flood_reaches_every_node(self, star4):
        world = make_flood_world(star4, {i: 10.0 * i for i in star4.node_ids})
        world.run_epoch(0)
        query = RangeQuery(0, "temperature", 0.0, 100.0, epoch=1)
        sources, should = evaluate_query(world.dataset, world.tree, query, 1)
        world.audit.register_query(query, sources, should, 1, population=4)
        world.root.inject_query(query)
        world.settle(3.0)
        assert world.audit.record(0).received == {1, 2, 3, 4}

    def test_flood_reaches_multihop_nodes(self):
        topo = line_topology(6)
        world = make_flood_world(topo, {i: float(i) for i in topo.node_ids})
        world.run_epoch(0)
        query = RangeQuery(0, "temperature", -1.0, 10.0, epoch=1)
        world.audit.register_query(query, set(), set(range(1, 6)), 1, population=5)
        world.root.inject_query(query)
        world.settle(3.0)
        assert world.audit.record(0).received == {1, 2, 3, 4, 5}

    def test_each_node_rebroadcasts_exactly_once(self, star4):
        world = make_flood_world(star4, {i: 1.0 for i in star4.node_ids})
        world.run_epoch(0)
        world.root.inject_query(RangeQuery(0, "temperature", 0.0, 2.0, epoch=1))
        world.settle(3.0)
        for n in world.protocols:
            assert world.ledger.node(n).count("tx", "flood") == 1

    def test_source_evaluation_uses_live_reading(self, star4):
        world = make_flood_world(star4, {0: 0.0, 1: 10.0, 2: 20.0, 3: 30.0, 4: 40.0})
        world.run_epoch(0)
        query = RangeQuery(0, "temperature", 25.0, 45.0, epoch=1)
        world.audit.register_query(query, {3, 4}, {3, 4}, 1, population=4)
        world.root.inject_query(query)
        world.settle(3.0)
        assert world.audit.record(0).source_claims == {3, 4}


class TestFloodingCost:
    """Simulated flooding must reproduce eq. (3) exactly: C_F = N + 2L."""

    @pytest.mark.parametrize("builder,n", [(star_topology, 6), (line_topology, 7)])
    def test_cost_matches_closed_form(self, builder, n):
        topo = builder(n) if builder is line_topology else builder(n - 1)
        world = make_flood_world(topo, {i: 1.0 for i in topo.node_ids})
        world.run_epoch(0)
        world.root.inject_query(RangeQuery(0, "temperature", 0.0, 2.0, epoch=1))
        world.settle(3.0)
        expected = flooding_cost_general(topo.num_nodes, topo.num_links)
        assert world.ledger.total_cost(["flood"]) == pytest.approx(expected)

    def test_cost_on_random_topology(self, small_topology):
        world = make_flood_world(
            small_topology, {i: 1.0 for i in small_topology.node_ids}
        )
        world.run_epoch(0)
        world.root.inject_query(RangeQuery(0, "temperature", 0.0, 2.0, epoch=1))
        world.settle(3.0)
        expected = flooding_cost_general(
            small_topology.num_nodes, small_topology.num_links
        )
        assert world.ledger.total_cost(["flood"]) == pytest.approx(expected)

    def test_two_queries_cost_twice_as_much(self, star4):
        world = make_flood_world(star4, {i: 1.0 for i in star4.node_ids})
        world.run_epoch(0)
        world.root.inject_query(RangeQuery(0, "temperature", 0.0, 2.0, epoch=1))
        world.settle(2.0)
        one = world.ledger.total_cost(["flood"])
        world.root.inject_query(RangeQuery(1, "temperature", 0.0, 2.0, epoch=1))
        world.settle(3.0)
        assert world.ledger.total_cost(["flood"]) == pytest.approx(2 * one)

    def test_flooding_sends_no_updates_or_estimates(self, star4):
        world = make_flood_world(star4, {i: 1.0 for i in star4.node_ids})
        world.run_epochs(0, 5)
        world.root.inject_query(RangeQuery(0, "temperature", 0.0, 2.0, epoch=5))
        world.settle(7.0)
        assert world.ledger.total_count(kind="update") == 0
        assert world.ledger.total_count(kind="estimate") == 0

    def test_duplicate_receptions_are_charged_but_not_rebroadcast(self):
        # In a triangle every node hears the query twice but rebroadcasts once.
        topo = topology_from_edges(
            {0: (0, 0), 1: (1, 0), 2: (0, 1)}, [(0, 1), (1, 2), (0, 2)]
        )
        world = make_flood_world(topo, {0: 1.0, 1: 1.0, 2: 1.0})
        world.run_epoch(0)
        world.root.inject_query(RangeQuery(0, "temperature", 0.0, 2.0, epoch=1))
        world.settle(3.0)
        # N + 2L = 3 + 6 = 9.
        assert world.ledger.total_cost(["flood"]) == pytest.approx(9.0)
        assert all(
            world.ledger.node(n).count("tx", "flood") == 1 for n in world.protocols
        )
