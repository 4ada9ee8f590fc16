"""Tests for the wireless channel: delivery, cost accounting, dynamics."""

import numpy as np
import pytest

from repro.network.channel import WirelessChannel
from repro.network.topology import random_geometric_topology
from repro.simulation.engine import Simulator

from ..differential.reference import PerReceiverChannel


def make_channel(topology, **kwargs):
    sim = Simulator()
    return sim, WirelessChannel(sim, topology, **kwargs)


class Collector:
    """Records frames delivered to one node."""

    def __init__(self):
        self.received = []

    def __call__(self, sender, frame):
        self.received.append((sender, frame))


class TestDelivery:
    def test_broadcast_reaches_all_neighbors(self, star4):
        sim, channel = make_channel(star4)
        sinks = {nid: Collector() for nid in star4.node_ids}
        for nid, sink in sinks.items():
            channel.register(nid, sink)
        delivered = channel.broadcast(0, "hello", kind="test")
        sim.run()
        assert delivered == 4
        for leaf in (1, 2, 3, 4):
            assert sinks[leaf].received == [(0, "hello")]
        assert sinks[0].received == []

    def test_unicast_reaches_only_destination(self, star4):
        sim, channel = make_channel(star4)
        sinks = {nid: Collector() for nid in star4.node_ids}
        for nid, sink in sinks.items():
            channel.register(nid, sink)
        assert channel.unicast(0, 2, "msg", kind="test") == 1
        sim.run()
        assert sinks[2].received == [(0, "msg")]
        assert sinks[1].received == []

    def test_unicast_to_non_neighbor_is_paid_but_lost(self, line5):
        sim, channel = make_channel(line5)
        sink = Collector()
        channel.register(4, sink)
        assert channel.unicast(0, 4, "msg", kind="test") == 0
        sim.run()
        assert sink.received == []
        assert channel.ledger.total_count(direction="tx", kind="test") == 1
        assert channel.ledger.total_count(direction="rx", kind="test") == 0

    def test_delivery_is_delayed_not_immediate(self, star4):
        sim, channel = make_channel(star4)
        sink = Collector()
        channel.register(1, sink)
        channel.unicast(0, 1, "m", kind="test")
        assert sink.received == []  # nothing before the event loop runs
        sim.run()
        assert sink.received == [(0, "m")]

    def test_register_unknown_node_raises(self, star4):
        _, channel = make_channel(star4)
        with pytest.raises(KeyError):
            channel.register(42, Collector())

    def test_unknown_sender_raises(self, star4):
        _, channel = make_channel(star4)
        with pytest.raises(KeyError):
            channel.broadcast(42, "x", kind="test")


class TestCostAccounting:
    def test_broadcast_costs_one_tx_and_one_rx_per_neighbor(self, star4):
        sim, channel = make_channel(star4)
        channel.broadcast(0, "x", kind="query")
        sim.run()
        ledger = channel.ledger
        assert ledger.node(0).count("tx", "query") == 1
        assert ledger.total_count(direction="rx", kind="query") == 4
        assert ledger.total_cost(["query"]) == 5.0  # unit model: 1 + 4

    def test_unicast_costs_exactly_two_units(self, line5):
        sim, channel = make_channel(line5)
        channel.unicast(1, 2, "x", kind="update")
        sim.run()
        assert channel.ledger.total_cost(["update"]) == 2.0

    def test_costs_attributed_per_kind(self, star4):
        sim, channel = make_channel(star4)
        channel.broadcast(0, "a", kind="query")
        channel.unicast(0, 1, "b", kind="update")
        sim.run()
        assert channel.ledger.total_cost(["query"]) == 5.0
        assert channel.ledger.total_cost(["update"]) == 2.0
        assert channel.ledger.total_cost() == 7.0


class TestDynamics:
    def test_dead_node_does_not_transmit(self, star4):
        sim, channel = make_channel(star4)
        channel.set_alive(1, False)
        assert channel.broadcast(1, "x", kind="test") == 0
        assert channel.stats.drops_dead_node == 1

    def test_dead_node_does_not_receive(self, star4):
        sim, channel = make_channel(star4)
        sink = Collector()
        channel.register(2, sink)
        channel.set_alive(2, False)
        delivered = channel.broadcast(0, "x", kind="test")
        sim.run()
        assert delivered == 3  # only the three alive leaves
        assert sink.received == []

    def test_num_links_counts_only_alive_pairs(self, star4):
        _, channel = make_channel(star4)
        assert channel.num_links == 4
        channel.set_alive(1, False)
        assert channel.num_links == 3

    def test_num_links_matches_an_edge_scan_through_churn(self):
        topology = random_geometric_topology(
            30, comm_range=30.0, area_size=100.0, rng=np.random.default_rng(3)
        )
        _, channel = make_channel(topology)

        def scanned():
            alive = channel.alive
            return sum(
                1
                for a, nbrs in channel.adjacency.items()
                for b in nbrs
                if a < b and a in alive and b in alive
            )

        rng = np.random.default_rng(5)
        relinked = 0
        for step in range(40):
            nid = int(rng.choice(topology.node_ids))
            if step % 7 == 6:
                # A move re-links around a possibly dead node.
                before = channel.adjacency
                topology = topology.with_positions_delta(
                    {nid: (float(rng.uniform(0, 100)), float(rng.uniform(0, 100)))}
                )[0]
                channel.update_topology(topology)
                relinked += channel.adjacency is not before
            else:
                channel.set_alive(nid, nid not in channel.alive)
            assert channel.num_links == scanned(), step
        assert relinked
        # Adjacent dead pairs were exercised, not just isolated deaths.
        dead = set(channel.adjacency) - channel.alive
        assert any(b in dead for a in dead for b in channel.adjacency[a])

    def test_channel_loss_drops_fraction_of_receptions(self, star4):
        sim, channel = make_channel(
            star4, loss_probability=0.5, rng=np.random.default_rng(0)
        )
        for nid in star4.node_ids:
            channel.register(nid, Collector())
        scheduled = sum(channel.broadcast(0, "x", kind="test") for _ in range(200))
        # The loss draw happens at delivery: every alive neighbour is
        # scheduled, and nothing is drawn before the event loop runs.
        assert scheduled == 800
        assert channel.stats.drops_loss == 0
        sim.run()
        # 200 broadcasts x 4 neighbours = 800 potential receptions at 50% loss.
        delivered = channel.stats.deliveries
        assert 300 < delivered < 500
        assert channel.stats.drops_loss == 800 - delivered
        assert channel.ledger.total_count(direction="rx") == delivered

    def test_invalid_loss_probability(self, star4):
        with pytest.raises(ValueError):
            make_channel(star4, loss_probability=1.5)


class TestLossValidation:
    def test_loss_probability_one_is_accepted_and_drops_everything(self, star4):
        """The 'all receptions fail' ablation is a legitimate setting."""
        sim, channel = make_channel(
            star4, loss_probability=1.0, rng=np.random.default_rng(0)
        )
        sink = Collector()
        channel.register(1, sink)
        # Four receptions are scheduled; all four fail their draw at delivery.
        assert channel.broadcast(0, "x", kind="test") == 4
        sim.run()
        assert sink.received == []
        assert channel.stats.deliveries == 0
        assert channel.stats.drops_loss == 4
        # The transmission itself is still paid for; nothing is received.
        assert channel.ledger.total_count(direction="tx") == 1
        assert channel.ledger.total_count(direction="rx") == 0

    def test_negative_loss_probability_rejected(self, star4):
        with pytest.raises(ValueError):
            make_channel(star4, loss_probability=-0.1)

    def test_lossy_channel_without_rng_raises_at_construction(self, star4):
        """A lossy channel must never silently behave as an ideal one."""
        with pytest.raises(ValueError, match="rng"):
            make_channel(star4, loss_probability=0.3, rng=None)

    def test_ideal_channel_needs_no_rng(self, star4):
        _, channel = make_channel(star4, loss_probability=0.0, rng=None)
        assert channel.loss_probability == 0.0


class TestDeliveryTimeAccounting:
    """Reception energy is charged at delivery; the ledger and the stats
    must agree about receptions that actually happened."""

    def test_rx_not_charged_before_delivery(self, star4):
        sim, channel = make_channel(star4)
        channel.unicast(0, 1, "m", kind="test")
        # Transmit cost is immediate, reception is still in flight.
        assert channel.ledger.total_count(direction="tx", kind="test") == 1
        assert channel.ledger.total_count(direction="rx", kind="test") == 0
        sim.run()
        assert channel.ledger.total_count(direction="rx", kind="test") == 1

    def test_target_dying_in_flight_is_never_charged(self, star4):
        sim, channel = make_channel(star4)
        sink = Collector()
        channel.register(1, sink)
        channel.unicast(0, 1, "m", kind="test")
        channel.set_alive(1, False)  # dies while the frame is in the air
        sim.run()
        assert sink.received == []
        assert channel.stats.drops_dead_node == 1
        assert channel.stats.deliveries == 0
        assert channel.ledger.total_count(direction="rx", kind="test") == 0
        assert channel.ledger.total_cost(["test"]) == 1.0  # tx only

    def test_in_flight_death_no_double_drop_count(self, star4):
        sim, channel = make_channel(star4)
        channel.unicast(0, 1, "m", kind="test")
        channel.set_alive(1, False)
        sim.run()
        # Exactly one drop is recorded for the one lost reception.
        assert channel.stats.drops_dead_node == 1

    def test_broadcast_partial_in_flight_death(self, star4):
        sim, channel = make_channel(star4)
        sinks = {nid: Collector() for nid in (1, 2, 3, 4)}
        for nid, sink in sinks.items():
            channel.register(nid, sink)
        channel.broadcast(0, "x", kind="test")
        channel.set_alive(3, False)
        sim.run()
        assert channel.stats.deliveries == 3
        assert channel.stats.drops_dead_node == 1
        assert channel.ledger.total_count(direction="rx", kind="test") == 3
        assert sinks[3].received == []

    def test_charged_equals_delivered_invariant(self, star4):
        """Ledger rx count == stats.deliveries when every node registers."""
        rng = np.random.default_rng(7)
        sim, channel = make_channel(
            star4, loss_probability=0.4, rng=np.random.default_rng(1)
        )
        for nid in star4.node_ids:
            channel.register(nid, Collector())
        for i in range(50):
            channel.broadcast(int(rng.integers(0, 5)), "x", kind="test")
            if i == 20:
                channel.set_alive(4, False)
            if i == 35:
                channel.set_alive(4, True)
        sim.run()
        assert (
            channel.ledger.total_count(direction="rx", kind="test")
            == channel.stats.deliveries
        )


class TestBatchedDeliveryEquivalence:
    """The batched fan-out event must behave exactly like one event per
    receiver (the reference formulation, kept as a test oracle)."""

    def _run(self, topology, batched, loss=0.0):
        sim = Simulator()
        channel_class = WirelessChannel if batched else PerReceiverChannel
        channel = channel_class(
            sim,
            topology,
            loss_probability=loss,
            rng=np.random.default_rng(3) if loss else None,
        )
        log = []
        for nid in topology.node_ids:
            channel.register(nid, lambda s, f, nid=nid: log.append((nid, s, f)))
        for i in range(40):
            channel.broadcast(i % 5, ("payload", i), kind="test")
            channel.unicast(i % 5, (i + 1) % 5, ("uni", i), kind="update")
        sim.run()
        return log, channel

    def test_same_delivery_order_and_ledger(self, star4):
        log_a, chan_a = self._run(star4, batched=True)
        log_b, chan_b = self._run(star4, batched=False)
        # The reference really ran: a broadcast to four leaves took one
        # event in the batched arm and four in the reference.
        assert chan_b.sim.executed > chan_a.sim.executed
        assert log_a == log_b
        assert chan_a.ledger.breakdown_by_kind() == chan_b.ledger.breakdown_by_kind()
        assert chan_a.stats == chan_b.stats

    def test_same_under_loss(self, star4):
        log_a, chan_a = self._run(star4, batched=True, loss=0.3)
        log_b, chan_b = self._run(star4, batched=False, loss=0.3)
        assert log_a == log_b
        assert chan_a.stats == chan_b.stats


class TestCopyOnWriteGraph:
    """The channel adopts the topology's adjacency map by reference and
    never mutates it."""

    def test_init_shares_graph_by_reference(self, line5):
        _, channel = make_channel(line5)
        assert channel.adjacency is line5.adjacency

    def test_update_topology_adopts_by_reference(self, line5):
        _, channel = make_channel(line5)
        moved, _ = line5.with_positions_delta(
            {nid: (float(nid) * 4.0, 0.0) for nid in line5.node_ids}
        )
        channel.update_topology(moved)
        assert channel.adjacency is moved.adjacency
