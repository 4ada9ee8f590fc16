"""Tests for the LMAC TDMA protocol: election, delivery, death detection."""

import numpy as np
import pytest

from repro.mac.crosslayer import NeighborFound, NeighborLost
from repro.mac.frames import MAC_CONTROL_KIND
from repro.mac.lmac import LMACProtocol
from repro.network.addresses import BROADCAST
from repro.network.channel import WirelessChannel
from repro.simulation.engine import Simulator

from ..helpers import line_topology, star_topology


def build_macs(topology, beacon_interval=5.0, death_threshold=3):
    sim = Simulator()
    channel = WirelessChannel(sim, topology)
    macs = {
        nid: LMACProtocol(
            sim,
            channel,
            nid,
            rng=np.random.default_rng(100 + nid),
            beacon_interval=beacon_interval,
            death_threshold=death_threshold,
        )
        for nid in topology.node_ids
    }
    for mac in macs.values():
        mac.start()
    return sim, channel, macs


class TestSlotElection:
    def test_every_node_owns_a_slot_after_start(self, star4):
        sim, _, macs = build_macs(star4)
        sim.run_until(1.0)
        for mac in macs.values():
            assert mac.own_slot is not None

    def test_neighbors_hold_distinct_slots_after_settling(self):
        topo = star_topology(6)
        sim, _, macs = build_macs(topo)
        sim.run_until(60.0)
        centre_slot = macs[0].own_slot
        leaf_slots = [macs[nid].own_slot for nid in range(1, 7)]
        assert centre_slot not in leaf_slots

    def test_conflict_resolution_prefers_lower_id(self):
        topo = star_topology(2)
        sim, _, macs = build_macs(topo)
        # Force a collision: both leaves claim slot 3.
        macs[1].schedule.claim(3)
        macs[2].schedule.claim(3)
        sim.run_until(40.0)
        # Leaves are two hops apart (through the centre); after the centre
        # reports occupancy both cannot keep colliding with the centre's view,
        # and direct conflicts with the centre are resolved lower-id-wins.
        assert macs[0].own_slot != macs[1].own_slot
        assert macs[0].own_slot != macs[2].own_slot


class TestNeighborDiscovery:
    def test_beacons_populate_neighbor_tables(self, star4):
        sim, _, macs = build_macs(star4)
        sim.run_until(12.0)
        assert macs[0].neighbors.neighbor_ids == [1, 2, 3, 4]
        for leaf in (1, 2, 3, 4):
            assert macs[leaf].neighbors.neighbor_ids == [0]

    def test_neighbor_found_published_on_first_contact(self, star4):
        sim, _, macs = build_macs(star4)
        events = []
        macs[0].crosslayer.subscribe(lambda e: events.append(e))
        sim.run_until(12.0)
        found = [e for e in events if isinstance(e, NeighborFound)]
        assert {e.neighbor_id for e in found} == {1, 2, 3, 4}

    def test_control_beacons_use_mac_control_kind(self, star4):
        sim, channel, _ = build_macs(star4)
        sim.run_until(12.0)
        assert channel.ledger.total_count(kind=MAC_CONTROL_KIND) > 0


class TestPayloadTransport:
    def test_unicast_payload_reaches_upper_layer(self, line5):
        sim, _, macs = build_macs(line5)
        received = []
        macs[1].set_upper_handler(lambda sender, payload: received.append((sender, payload)))
        macs[0].send(1, {"type": "query"}, kind="query")
        sim.run_until(1.0)
        assert received == [(0, {"type": "query"})]

    def test_broadcast_payload_reaches_all_neighbors(self, star4):
        sim, _, macs = build_macs(star4)
        received = {nid: [] for nid in (1, 2, 3, 4)}
        for nid in received:
            macs[nid].set_upper_handler(
                lambda sender, payload, nid=nid: received[nid].append(payload)
            )
        macs[0].broadcast("estimate", kind="estimate")
        sim.run_until(1.0)
        assert all(msgs == ["estimate"] for msgs in received.values())

    def test_payload_not_delivered_to_non_destination(self, star4):
        sim, _, macs = build_macs(star4)
        received = []
        macs[2].set_upper_handler(lambda s, p: received.append(p))
        macs[0].send(1, "private", kind="query")
        sim.run_until(1.0)
        assert received == []

    def test_dead_node_does_not_send(self, star4):
        sim, channel, macs = build_macs(star4)
        channel.set_alive(1, False)
        before = channel.ledger.total_count(direction="tx", kind="query")
        macs[1].send(0, "x", kind="query")
        sim.run_until(1.0)
        assert channel.ledger.total_count(direction="tx", kind="query") == before


class TestDeathDetection:
    def test_silent_neighbor_declared_dead(self, star4):
        sim, channel, macs = build_macs(star4, beacon_interval=5.0, death_threshold=3)
        sim.run_until(12.0)
        assert 1 in macs[0].neighbors

        lost = []
        macs[0].crosslayer.subscribe(
            lambda e: lost.append(e) if isinstance(e, NeighborLost) else None
        )
        channel.set_alive(1, False)
        macs[1].shutdown()
        # Three missed beacon intervals plus margin.
        sim.run_until(12.0 + 5.0 * 5)
        assert any(e.neighbor_id == 1 for e in lost)
        assert 1 not in macs[0].neighbors

    def test_alive_neighbors_are_not_declared_dead(self, star4):
        sim, _, macs = build_macs(star4)
        lost = []
        macs[0].crosslayer.subscribe(
            lambda e: lost.append(e) if isinstance(e, NeighborLost) else None
        )
        sim.run_until(60.0)
        assert lost == []

    def test_wake_restarts_beaconing(self, star4):
        sim, channel, macs = build_macs(star4)
        sim.run_until(12.0)
        channel.set_alive(1, False)
        macs[1].shutdown()
        sim.run_until(40.0)
        assert 1 not in macs[0].neighbors
        channel.set_alive(1, True)
        macs[1].wake()
        sim.run_until(60.0)
        assert 1 in macs[0].neighbors


class TestValidation:
    def test_invalid_parameters_rejected(self, star4):
        sim = Simulator()
        channel = WirelessChannel(sim, star4)
        with pytest.raises(ValueError):
            LMACProtocol(sim, channel, 0, beacon_interval=0.0)
        with pytest.raises(ValueError):
            LMACProtocol(sim, channel, 1, death_threshold=0)


class TestBeaconPlan:
    def test_failed_plan_rebuild_keeps_no_superseded_graph(self):
        """A re-link replaces the channel graph; a sender whose next plan
        build fails (its new neighbour is not yet in the steady state for
        it) must drop its old plan, which pins the superseded graph."""
        topology = line_topology(6)
        sim, channel, macs = build_macs(topology)
        for mac in macs.values():
            mac.fast_beacons = True
        sim.run_until(40.0)
        old_graph = channel.graph
        assert all(mac._beacon_plan.graph is old_graph for mac in macs.values())

        failed = []
        build = LMACProtocol._build_beacon_plan

        def recording_build(mac, *args):
            plan = build(mac, *args)
            if plan is None:
                failed.append(mac.node_id)
            return plan

        # Node 5 drifts from the far end of the line to beside node 0.
        moved, _ = topology.with_positions_delta({5: (-10.0, 0.0)})
        channel.update_topology(moved)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(LMACProtocol, "_build_beacon_plan", recording_build)
            sim.run_until(45.0)
        assert failed
        for mac in macs.values():
            plan = mac._beacon_plan
            assert plan is None or plan.graph is channel.graph, mac.node_id
