"""Tests for the unit-cost ledgers and batteries."""

import copy
import pickle

import pytest

from repro.energy.battery import Battery
from repro.energy.ledger import NetworkLedger, NodeLedger, UnreadLedger


class TestNodeLedger:
    def test_charges_accumulate_by_direction_and_kind(self):
        ledger = NodeLedger(3)
        ledger.charge_tx("query")
        ledger.charge_tx("query")
        ledger.charge_rx("query")
        ledger.charge_tx("update")
        assert ledger.count("tx", "query") == 2
        assert ledger.count("rx", "query") == 1
        assert ledger.count("tx") == 3
        assert ledger.count(kind="query") == 3
        assert ledger.total_cost() == 4.0
        assert ledger.total_cost(["update"]) == 1.0

    def test_breakdown_and_cost_types(self):
        """A cost is a float and an empty sum the int 0: fingerprints
        digest both, so neither type may change."""
        ledger = NodeLedger(1)
        assert type(ledger.total_cost()) is int
        ledger.charge_tx("flood")
        assert ledger.breakdown() == {("tx", "flood"): (1, 1.0)}
        ((count, cost),) = ledger.breakdown().values()
        assert (type(count), type(cost)) == (int, float)
        assert type(ledger.total_cost()) is float
        assert type(ledger.total_cost(["query"])) is int


class TestNetworkLedger:
    def test_node_ledgers_created_on_demand(self):
        net = NetworkLedger()
        net.node(4).charge_tx("query")
        assert net.node_ids == [4]

    def test_network_totals(self):
        net = NetworkLedger()
        net.node(0).charge_tx("query")
        net.node(1).charge_rx("query")
        net.node(1).charge_tx("update")
        assert net.total_cost() == 3.0
        assert net.total_cost(["query"]) == 2.0
        assert net.total_count(direction="tx") == 2
        assert net.total_count(direction="tx", kind="update") == 1

    def test_per_node_and_kind_breakdowns(self):
        net = NetworkLedger()
        net.node(0).charge_tx("query")
        net.node(1).charge_rx("query")
        net.node(1).charge_rx("query")
        assert net.per_node_cost() == {0: 1.0, 1: 2.0}
        assert net.breakdown_by_kind() == {"query": (3, 3.0)}


class TestLedgerPickle:
    @staticmethod
    def ledger() -> NetworkLedger:
        net = NetworkLedger()
        net.node(5).charge_tx("query")
        net.node(5).charge_tx("query")
        net.node(2).charge_rx("update")
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
            ledger.node(9).charge_rx("query")
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
        clone.node(5).charge_tx("query")
        assert net.node(5).count() == 2
        assert clone.node(5).count() == 3


class TestBattery:
    def test_infinite_by_default(self):
        b = Battery()
        b.draw(1e9)
        assert b.remaining == b.capacity == float("inf")
        assert not b.depleted

    def test_finite_draw_and_depletion(self):
        b = Battery(10.0)
        b.draw(6.0)
        assert b.remaining == 4.0
        b.draw(5.0)  # the draw that empties it stops at zero
        assert b.remaining == 0.0
        assert b.depleted
        b.draw(1.0)
        assert b.remaining == 0.0

    def test_recharge(self):
        b = Battery(10.0)
        b.draw(8.0)
        b.recharge()
        assert b.remaining == 10.0
        assert not b.depleted

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            Battery(0.0)
        with pytest.raises(ValueError):
            Battery(5.0).draw(-1.0)
