"""Focused tests for DirQRoot behaviour and the protocol base class."""

import pytest

from repro.core.config import DirQConfig, ThresholdMode
from repro.core.dirq_root import DirQRoot
from repro.core.messages import QUERY_KIND, RangeQuery
from repro.core.protocol import DisseminationProtocol

from ..helpers import build_mini_world, constant_dataset, star_topology


@pytest.fixture
def atc_world():
    topo = star_topology(4)
    data = constant_dataset(
        topo.node_ids, {0: 0.0, 1: 10.0, 2: 20.0, 3: 30.0, 4: 40.0}, num_epochs=60
    )
    cfg = DirQConfig(
        threshold_mode=ThresholdMode.ADAPTIVE, epochs_per_hour=20, atc_window_epochs=10
    )
    return build_mini_world(topo, data, config=cfg)


class TestDirQRoot:
    def test_root_requires_root_node(self, line_world):
        world = line_world
        with pytest.raises(ValueError):
            DirQRoot(
                world.sim,
                world.nodes[1],           # not the root node
                world.macs[1],
                world.config,
            )

    def test_calibration_setters_validate(self, line_world):
        root = line_world.root
        with pytest.raises(ValueError):
            root.set_network_size(0)
        with pytest.raises(ValueError):
            root.set_flooding_cost(0.0)
        root.set_network_size(5)
        root.set_flooding_cost(100.0)
        assert root.flooding_cost_per_query == 100.0

    def test_injecting_at_dead_root_raises(self, line_world):
        world = line_world
        world.kill(0)
        with pytest.raises(RuntimeError):
            world.root.inject_query(RangeQuery(0, "temperature", 0.0, 1.0))

    def test_estimate_carries_budget_only_in_adaptive_mode(self, atc_world, line_world):
        # Fixed-threshold root: no budget in the estimate.
        line_world.run_epoch(0)
        line_world.root.set_network_size(5)
        msg_fixed = line_world.root.start_new_hour()
        assert msg_fixed.node_update_budget is None

        # Adaptive root with flooding cost installed: budget present.
        atc_world.run_epoch(0)
        atc_world.root.set_network_size(5)
        atc_world.root.set_flooding_cost(40.0)
        msg_atc = atc_world.root.start_new_hour()
        assert msg_atc.node_update_budget is not None
        assert msg_atc.node_update_budget >= 0.0

    def test_hour_index_increments_and_queries_counted_per_hour(self, atc_world):
        world = atc_world
        world.run_epoch(0)
        world.root.set_network_size(5)
        world.root.set_flooding_cost(40.0)
        first = world.root.start_new_hour()
        world.root.inject_query(RangeQuery(10, "temperature", 0.0, 100.0, epoch=1))
        world.settle(2.0)
        second = world.root.start_new_hour()
        assert second.hour_index == first.hour_index + 1
        # The completed hour's realised count (1 query) feeds the predictor.
        assert world.root.predictor.history[-1] == 1

    def test_root_can_be_a_source_itself(self, star_world):
        world = star_world
        world.run_epoch(0)
        # Root's own reading is 0.0; query matching it must register a claim.
        query = RangeQuery(9, "temperature", -1.0, 1.0, epoch=1)
        world.audit.register_query(query, {0}, set(), 1, population=4)
        world.root.inject_query(query)
        world.settle(2.0)
        assert 0 in world.audit.record(9).source_claims


class TestDisseminationProtocolBase:
    def test_set_tree_links_rejects_self_parent(self, line_world):
        with pytest.raises(ValueError):
            line_world.protocols[2].set_tree_links(2, [])

    def test_children_are_sorted(self, line_world):
        proto = line_world.protocols[1]
        proto.set_tree_links(0, [4, 2, 3])
        assert proto.children == [2, 3, 4]

    def test_dead_node_ignores_mac_payloads(self, line_world):
        """A query frame from node 1 reaches node 2's protocol only while
        node 2 is alive: the channel, not the protocol, checks liveness."""
        world = line_world
        world.run_epoch(0)
        world.kill(2)
        before = world.protocols[2].queries_received
        world.macs[1].send(2, RangeQuery(3, "temperature", 0.0, 99.0), QUERY_KIND)
        world.settle(world.sim.now + 0.01)
        assert world.protocols[2].queries_received == before
        world.revive(2)
        world.macs[1].send(2, RangeQuery(4, "temperature", 0.0, 99.0), QUERY_KIND)
        world.settle(world.sim.now + 0.01)
        assert world.protocols[2].queries_received == before + 1

    def test_audit_helpers_tolerate_missing_audit(self, line5):
        data = constant_dataset(line5.node_ids, {i: 1.0 for i in line5.node_ids})
        world = build_mini_world(line5, data)
        proto = world.protocols[3]
        proto.audit = None
        # Must not raise even without an audit installed.
        proto.record_query_receipt(0)
        proto.record_source_claim(0)

    def test_base_class_requires_on_payload_override(self, sim, line5):
        from repro.mac.lmac import LMACProtocol
        from repro.network.channel import WirelessChannel
        from repro.network.node import SensorNode

        channel = WirelessChannel(sim, line5)
        node = SensorNode(1, (0.0, 0.0))
        mac = LMACProtocol(sim, channel, 1)
        proto = DisseminationProtocol(sim, node, mac)
        with pytest.raises(NotImplementedError):
            proto.on_payload(0, "anything")


class TestAdaptiveNodeBehaviour:
    def test_atc_nodes_adjust_thresholds_over_windows(self, atc_world):
        world = atc_world
        world.run_epoch(0)
        world.root.set_network_size(5)
        world.root.set_flooding_cost(40.0)
        # Prime the predictor with a realistic load so the hourly plan hands
        # every node a non-zero update budget.
        world.root.predictor.record(10)
        world.root.start_new_hour()
        world.settle(0.99)
        atc = world.protocols[1].atc
        initial = atc.delta_percent("temperature")
        world.run_epochs(1, 40)
        final = atc.delta_percent("temperature")
        # Constant data -> almost no updates -> the controller narrows delta.
        assert final < initial

    def test_fixed_mode_exposes_config_delta(self, line_world):
        proto = line_world.protocols[1]
        assert proto.atc is None
        assert proto.current_delta("temperature") == pytest.approx(
            line_world.config.absolute_delta("temperature")
        )
