"""Behavioural tests for the DirQ node/root protocol over miniature networks."""

import pytest

from repro.core.config import DirQConfig
from repro.core.messages import RangeQuery
from repro.workload.ground_truth import evaluate_query

from ..helpers import (
    build_mini_world,
    constant_dataset,
    line_topology,
    ramp_dataset,
    topology_from_edges,
)


def fixed_config(delta_percent=5.0, **kwargs):
    return DirQConfig(delta_percent=delta_percent, epochs_per_hour=100, **kwargs)


class TestRangePropagation:
    def test_ranges_propagate_to_root_within_one_epoch(self, line_world):
        world = line_world
        world.run_epoch(0)
        root_table = world.root.tables.table("temperature")
        assert root_table is not None
        # The root's aggregate must cover every node's constant reading
        # (10..50) within the delta padding.
        low, high = root_table.aggregate()
        assert low <= 10.0
        assert high >= 50.0

    def test_child_entries_summarise_whole_subtrees(self, line_world):
        world = line_world
        world.run_epoch(0)
        # Node 1's entry at the root covers nodes 1..4 (readings 20..50).
        entry = world.root.tables.table("temperature").child_entry(1)
        assert entry.min_threshold <= 20.0
        assert entry.max_threshold >= 50.0

    def test_stable_readings_do_not_retrigger_updates(self, line_world):
        world = line_world
        world.run_epochs(0, 5)
        updates_after_first = world.ledger.total_count(direction="tx", kind="update")
        world.run_epochs(6, 20)
        # Constant dataset: no further updates after the initial advertisement.
        assert (
            world.ledger.total_count(direction="tx", kind="update")
            == updates_after_first
        )

    def test_changing_readings_trigger_updates_and_refresh_root_view(self):
        topo = line_topology(3)
        # Node 2 ramps from 10 to 10 + 40 over 40 epochs; others constant.
        data = ramp_dataset(
            topo.node_ids, start={0: 0.0, 1: 5.0, 2: 10.0}, slope={2: 1.0}, num_epochs=50
        )
        world = build_mini_world(topo, data, config=fixed_config(2.0))
        world.run_epochs(0, 40)
        low, high = world.root.tables.table("temperature").aggregate()
        assert high >= 45.0  # root tracked node 2's climb
        assert world.ledger.total_count(direction="tx", kind="update") > 2

    def test_larger_delta_produces_fewer_updates(self):
        topo = line_topology(4)
        data = ramp_dataset(
            topo.node_ids,
            start={nid: 10.0 * nid for nid in topo.node_ids},
            slope={nid: 0.5 for nid in topo.node_ids},
            num_epochs=60,
        )
        counts = {}
        for delta in (2.0, 10.0):
            world = build_mini_world(topo, data, config=fixed_config(delta))
            world.run_epochs(0, 59)
            counts[delta] = world.ledger.total_count(direction="tx", kind="update")
        assert counts[10.0] < counts[2.0]


class TestQueryRouting:
    def test_query_reaches_only_relevant_branch_of_a_star(self, star_world):
        world = star_world
        world.run_epoch(0)
        # Leaves hold 10 / 20 / 30 / 40; query [28, 42] matches leaves 3 and 4.
        query = RangeQuery(0, "temperature", 28.0, 42.0, epoch=1)
        sources, should = evaluate_query(world.dataset, world.tree, query, 1)
        world.audit.register_query(query, sources, should, 1, population=4)
        world.root.inject_query(query)
        world.settle(2.0)
        record = world.audit.record(0)
        assert record.received == {3, 4}
        assert record.missed == set()

    def test_query_travels_through_forwarding_nodes_on_a_line(self, line_world):
        world = line_world
        world.run_epoch(0)
        # Only node 4 (reading 50) matches; nodes 1-3 must forward.
        query = RangeQuery(0, "temperature", 48.0, 55.0, epoch=1)
        sources, should = evaluate_query(world.dataset, world.tree, query, 1)
        assert sources == {4}
        assert should == {1, 2, 3, 4}
        world.audit.register_query(query, sources, should, 1, population=4)
        world.root.inject_query(query)
        world.settle(2.0)
        assert world.audit.record(0).received == {1, 2, 3, 4}

    def test_query_for_unknown_sensor_type_dies_at_root(self, line_world):
        world = line_world
        world.run_epoch(0)
        query = RangeQuery(5, "radiation", 0.0, 1.0, epoch=1)
        forwarded = world.root.inject_query(query)
        world.settle(2.0)
        assert forwarded == 0
        assert world.ledger.total_count(direction="tx", kind="query") == 0

    def test_non_matching_query_is_not_disseminated(self, star_world):
        world = star_world
        world.run_epoch(0)
        query = RangeQuery(1, "temperature", 900.0, 950.0, epoch=1)
        forwarded = world.root.inject_query(query)
        world.settle(2.0)
        assert forwarded == 0

    def test_source_claims_recorded(self, star_world):
        world = star_world
        world.run_epoch(0)
        query = RangeQuery(2, "temperature", 18.0, 22.0, epoch=1)
        sources, should = evaluate_query(world.dataset, world.tree, query, 1)
        world.audit.register_query(query, sources, should, 1, population=4)
        world.root.inject_query(query)
        world.settle(2.0)
        assert 2 in world.audit.record(2).source_claims

    def test_query_cost_charged_as_query_kind(self, star_world):
        world = star_world
        world.run_epoch(0)
        query = RangeQuery(3, "temperature", 8.0, 42.0, epoch=1)
        world.root.inject_query(query)
        world.settle(2.0)
        # All four leaves overlap: 4 unicasts = 8 cost units.
        assert world.ledger.total_cost(["query"]) == pytest.approx(8.0)


class TestEstimatesAndStatistics:
    def test_estimate_propagates_to_every_node(self, line_world):
        world = line_world
        world.run_epoch(0)
        world.root.set_network_size(5)
        world.root.start_new_hour()
        world.settle(2.0)
        # 4 hops down the line = 4 estimate transmissions.
        assert world.ledger.total_count(direction="tx", kind="estimate") == 4
        for nid in (1, 2, 3, 4):
            assert world.protocols[nid]._last_estimate_hour == 0

    def test_duplicate_estimates_not_relayed_twice(self, line_world):
        world = line_world
        world.run_epoch(0)
        world.root.set_network_size(5)
        message = world.root.start_new_hour()
        world.settle(2.0)
        before = world.ledger.total_count(direction="tx", kind="estimate")
        # Replay the same estimate at node 1: it must not relay again.
        world.protocols[1].on_payload(0, message)
        world.settle(3.0)
        assert world.ledger.total_count(direction="tx", kind="estimate") == before

    def test_nodes_count_their_updates(self, star_world):
        world = star_world
        world.run_epoch(0)
        q = RangeQuery(0, "temperature", 0.0, 100.0, epoch=1)
        world.root.inject_query(q)
        world.settle(2.0)
        assert sum(p.updates_sent for p in world.protocols.values()) >= 4


class TestHeterogeneousSensorTypes:
    def test_tables_exist_only_on_paths_to_type_owners(self):
        """Fig. 4: a table for type X exists iff X is in the node's subtree."""
        topo = line_topology(4)  # 0 - 1 - 2 - 3
        import numpy as np

        from repro.sensors.dataset import SensorDataset

        data = SensorDataset(
            node_ids=topo.node_ids,
            readings={
                "temperature": np.full((30, 4), 20.0),
                "humidity": np.full((30, 4), 60.0),
            },
        )
        # Only node 3 (deepest) carries humidity; all carry temperature.
        assignment = {
            0: ["temperature"],
            1: ["temperature"],
            2: ["temperature"],
            3: ["temperature", "humidity"],
        }
        world = build_mini_world(topo, data, sensor_assignment=assignment)
        world.run_epochs(0, 2)
        # Humidity tables exist along the whole path 3 -> 2 -> 1 -> 0.
        for nid in (0, 1, 2, 3):
            assert "humidity" in world.protocols[nid].tables.sensor_types
        # A humidity query is routable end to end.
        q = RangeQuery(0, "humidity", 55.0, 65.0, epoch=3)
        world.audit.register_query(q, {3}, {1, 2, 3}, 3, population=3)
        world.root.inject_query(q)
        world.settle(4.0)
        assert world.audit.record(0).received == {1, 2, 3}

    def test_new_sensor_type_added_after_deployment_becomes_routable(self):
        topo = line_topology(3)
        import numpy as np

        from repro.sensors.dataset import SensorDataset
        from repro.sensors.sensor import Sensor

        data = SensorDataset(
            node_ids=topo.node_ids,
            readings={
                "temperature": np.full((40, 3), 20.0),
                "co2": np.full((40, 3), 400.0),
            },
        )
        assignment = {0: ["temperature"], 1: ["temperature"], 2: ["temperature"]}
        world = build_mini_world(topo, data, sensor_assignment=assignment)
        world.run_epochs(0, 2)
        assert "co2" not in world.root.tables.sensor_types
        # A CO2 sensor is mounted on node 2 after deployment (paper §1).
        world.nodes[2].attach_sensor(Sensor(2, "co2", data))
        world.run_epochs(3, 5)
        assert "co2" in world.root.tables.sensor_types
        q = RangeQuery(0, "co2", 390.0, 410.0, epoch=6)
        world.audit.register_query(q, {2}, {1, 2}, 6, population=2)
        world.root.inject_query(q)
        world.settle(7.0)
        assert world.audit.record(0).received == {1, 2}


class TestTreeChanges:
    """A parent forgets a child that moves to another parent (§4.2)."""

    @staticmethod
    def diamond_world(sensor_assignment=None):
        # 0 - 1 - 3 and 0 - 2 - 3: node 3 starts under node 1.
        topo = topology_from_edges(
            {0: (0, 0), 1: (1, 1), 2: (1, -1), 3: (2, 0)},
            [(0, 1), (0, 2), (1, 3), (2, 3)],
        )
        data = constant_dataset(
            topo.node_ids, {0: 0.0, 1: 10.0, 2: 20.0, 3: 50.0}, num_epochs=60
        )
        world = build_mini_world(
            topo, data, config=fixed_config(), sensor_assignment=sensor_assignment
        )
        assert world.tree.parent_of(3) == 1
        return world

    @staticmethod
    def move_3_under_2(world):
        # The links the runner installs, in ascending id order.
        world.protocols[1].set_tree_links(0, [])
        world.protocols[2].set_tree_links(0, [3])
        world.protocols[3].set_tree_links(2, [])

    def test_moved_child_is_forgotten_and_old_parent_updates_upward(self):
        world = self.diamond_world()
        world.run_epochs(0, 3)
        root_view = world.root.tables.table("temperature")
        assert root_view.child_entry(1).max_threshold >= 50.0
        sent_before = world.ledger.node(1).count(direction="tx", kind="update")

        self.move_3_under_2(world)
        assert world.protocols[1].tables.table("temperature").child_entry(3) is None
        world.protocols[3].readvertise()
        world.run_epochs(4, 8)

        # Node 1 told the root its subtree shrank back to its own reading.
        assert world.ledger.node(1).count(direction="tx", kind="update") == (
            sent_before + 1
        )
        assert root_view.child_entry(1).max_threshold < 50.0
        assert root_view.child_entry(2).max_threshold >= 50.0

    def test_old_parent_without_sensors_sends_a_removal(self):
        # Node 1 only relays node 3's type; losing node 3 empties its table.
        world = self.diamond_world(
            sensor_assignment={0: ["temperature"], 2: ["temperature"], 3: ["temperature"]}
        )
        world.run_epochs(0, 3)
        assert world.root.tables.table("temperature").child_entry(1) is not None

        self.move_3_under_2(world)
        assert world.protocols[1].tables.table("temperature") is None
        world.protocols[3].readvertise()
        world.run_epochs(4, 8)

        assert world.root.tables.table("temperature").child_entry(1) is None
        assert world.root.tables.table("temperature").child_entry(2) is not None
