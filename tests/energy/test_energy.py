"""Tests for energy models, ledgers, and batteries."""

import copy
import pickle

import pytest

from repro.energy.battery import Battery
from repro.energy.ledger import NetworkLedger, NodeLedger, UnreadLedger
from repro.energy.model import RadioEnergyModel, UnitCostModel


class TestUnitCostModel:
    def test_transmit_is_one_unit_regardless_of_receivers(self):
        model = UnitCostModel()
        assert model.transmit_cost(payload_bytes=10, n_receivers=0) == 1.0
        assert model.transmit_cost(payload_bytes=1000, n_receivers=12) == 1.0

    def test_receive_is_one_unit(self):
        assert UnitCostModel().receive_cost(64) == 1.0

    def test_custom_units(self):
        model = UnitCostModel(tx_unit=2.0, rx_unit=0.5)
        assert model.transmit_cost(0, 1) == 2.0
        assert model.receive_cost(0) == 0.5


class TestRadioEnergyModel:
    def test_costs_scale_with_payload(self):
        model = RadioEnergyModel()
        assert model.transmit_cost(0, 1) == 10.0
        assert model.transmit_cost(50, 1) == 10.0 + 100.0
        assert model.receive_cost(50) == 8.0 + 75.0

    def test_tx_more_expensive_than_rx(self):
        model = RadioEnergyModel()
        assert model.transmit_cost(32, 1) > model.receive_cost(32)

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            RadioEnergyModel().transmit_cost(-1, 1)


class TestNodeLedger:
    def test_charges_accumulate_by_direction_and_kind(self):
        ledger = NodeLedger(3)
        ledger.charge_tx("query", 1.0)
        ledger.charge_tx("query", 1.0)
        ledger.charge_rx("query", 1.0)
        ledger.charge_tx("update", 1.0)
        assert ledger.count("tx", "query") == 2
        assert ledger.count("rx", "query") == 1
        assert ledger.count("tx") == 3
        assert ledger.count(kind="query") == 3
        assert ledger.total_cost() == 4.0
        assert ledger.total_cost(["update"]) == 1.0

    def test_breakdown_and_reset(self):
        ledger = NodeLedger(1)
        ledger.charge_tx("flood", 1.0)
        assert ledger.breakdown() == {("tx", "flood"): (1, 1.0)}
        ledger.reset()
        assert ledger.total_cost() == 0.0


class TestNetworkLedger:
    def test_node_ledgers_created_on_demand(self):
        net = NetworkLedger()
        net.node(4).charge_tx("query", 1.0)
        assert 4 in net
        assert net.node_ids == [4]

    def test_network_totals(self):
        net = NetworkLedger()
        net.node(0).charge_tx("query", 1.0)
        net.node(1).charge_rx("query", 1.0)
        net.node(1).charge_tx("update", 1.0)
        assert net.total_cost() == 3.0
        assert net.total_cost(["query"]) == 2.0
        assert net.total_count(direction="tx") == 2
        assert net.total_count(direction="tx", kind="update") == 1

    def test_per_node_and_kind_breakdowns(self):
        net = NetworkLedger()
        net.node(0).charge_tx("query", 1.0)
        net.node(1).charge_rx("query", 2.0)
        assert net.per_node_cost() == {0: 1.0, 1: 2.0}
        assert net.kinds() == {"query"}
        assert net.breakdown_by_kind() == {"query": (2, 3.0)}

    def test_reset_keeps_nodes_but_zeroes_costs(self):
        net = NetworkLedger()
        net.node(0).charge_tx("query", 1.0)
        net.reset()
        assert net.node_ids == [0]
        assert net.total_cost() == 0.0


class TestLedgerPickle:
    @staticmethod
    def ledger() -> NetworkLedger:
        net = NetworkLedger()
        net.node(5).charge_tx("query", 0.1)
        net.node(5).charge_tx("query", 0.2)
        net.node(2).charge_rx("update", 0.7)
        net.node(2)._entries[("tx", "mac")]  # an entry never charged
        net.node(9)  # a node never charged
        return net

    @staticmethod
    def contents(net: NetworkLedger):
        return [
            (nid, list(ledger.breakdown().items()))
            for nid, ledger in net._nodes.items()
        ]

    def test_rows_round_trip_in_iteration_order(self):
        net = self.ledger()
        loaded = pickle.loads(pickle.dumps(net))
        assert type(loaded) is UnreadLedger
        assert self.contents(loaded) == self.contents(net)
        assert type(loaded) is NetworkLedger
        assert loaded.node_ids == [2, 5, 9]
        assert loaded.breakdown_by_kind() == net.breakdown_by_kind()
        # A rebuilt ledger charges on like the live one.
        for ledger in (net, loaded):
            ledger.node(9).charge_rx("query", 1.0)
        assert self.contents(loaded) == self.contents(net)

    def test_unread_ledger_re_emits_its_rows(self):
        once = pickle.loads(pickle.dumps(self.ledger()))
        twice = pickle.loads(pickle.dumps(once))
        assert type(once) is UnreadLedger
        assert vars(twice) == vars(once)
        assert self.contents(twice) == self.contents(self.ledger())

    def test_copies_are_independent(self):
        net = self.ledger()
        clone = copy.deepcopy(net)
        clone.node(5).charge_tx("query", 1.0)
        assert net.node(5).count() == 2
        assert clone.node(5).count() == 3


class TestBattery:
    def test_infinite_by_default(self):
        b = Battery()
        assert b.draw(1e9) is True
        assert not b.depleted

    def test_finite_draw_and_depletion(self):
        b = Battery(10.0)
        assert b.draw(6.0) is True
        assert b.remaining == 4.0
        assert b.draw(5.0) is True  # the draw that empties it still succeeds
        assert b.depleted
        assert b.draw(1.0) is False

    def test_fraction_remaining(self):
        b = Battery(10.0)
        b.draw(2.5)
        assert b.fraction_remaining == pytest.approx(0.75)

    def test_recharge(self):
        b = Battery(10.0)
        b.draw(8.0)
        b.recharge(3.0)
        assert b.remaining == 5.0
        b.recharge()
        assert b.remaining == 10.0

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            Battery(0.0)
        with pytest.raises(ValueError):
            Battery(5.0).draw(-1.0)
        with pytest.raises(ValueError):
            Battery(5.0).recharge(-1.0)
