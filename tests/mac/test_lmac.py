"""Tests for LMAC: discovery, payload delivery, death detection, beacon plans."""

import numpy as np
import pytest

from repro.mac.frames import MAC_CONTROL_KIND
from repro.mac.lmac import LMACProtocol
from repro.network.channel import WirelessChannel
from repro.simulation.engine import Simulator

from ..helpers import line_topology


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


def record_losses(mac):
    """Log ``(neighbour, time)`` for every death ``mac`` declares."""
    lost = []
    mac.on_neighbor_lost = lambda neighbor: lost.append((neighbor, mac.now))
    return lost


class TestNeighborDiscovery:
    def test_beacons_populate_neighbor_tables(self, star4):
        sim, _, macs = build_macs(star4)
        sim.run_until(12.0)
        assert sorted(macs[0].neighbors) == [1, 2, 3, 4]
        for leaf in (1, 2, 3, 4):
            assert list(macs[leaf].neighbors) == [0]

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

        lost = record_losses(macs[0])
        channel.set_alive(1, False)
        macs[1].shutdown()
        # Three missed beacon intervals plus margin.
        sim.run_until(12.0 + 5.0 * 5)
        assert [neighbor for neighbor, _ in lost] == [1]
        assert 1 not in macs[0].neighbors

    def test_alive_neighbors_are_not_declared_dead(self, star4):
        sim, _, macs = build_macs(star4)
        lost = record_losses(macs[0])
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


class _FixedPhase:
    """Stand-in generator whose start-up beacon phase is chosen by the test."""

    def __init__(self, phase):
        self.phase = phase

    def uniform(self, low, high):
        return self.phase


class TestMacContract:
    def test_data_frames_keep_a_silent_beaconer_alive(self, star4):
        sim, _, macs = build_macs(star4, beacon_interval=5.0, death_threshold=3)
        sim.run_until(12.0)
        lost = record_losses(macs[0])
        macs[1].cancel_timer("beacon")
        # One data frame every two beacon periods: without the reset it
        # would be declared dead after three.
        for t in range(15, 100, 10):
            sim.schedule_at(float(t), lambda: macs[1].send(0, "ping", kind="query"))
        sim.run_until(100.0)
        assert lost == []
        assert 1 in macs[0].neighbors

    def test_same_period_deaths_are_announced_in_ascending_id_order(self, star4):
        sim = Simulator()
        channel = WirelessChannel(sim, star4)
        # Leaves beacon before the centre in every period, in the order
        # 4, 3, 1, 2, so the centre discovers them out of id order.
        phases = {4: 0.1, 3: 0.2, 1: 0.3, 2: 0.4, 0: 0.45}
        macs = {
            nid: LMACProtocol(
                sim, channel, nid, rng=_FixedPhase(phase), beacon_interval=5.0
            )
            for nid, phase in phases.items()
        }
        for mac in macs.values():
            mac.start()
        lost = record_losses(macs[0])
        # Just after the centre's tick, before any leaf beacons again.
        sim.run_until(10.5)
        for leaf in (3, 1):
            channel.set_alive(leaf, False)
            macs[leaf].shutdown()
        sim.run_until(40.0)
        assert [neighbor for neighbor, _ in lost] == [1, 3]
        assert lost[0][1] == lost[1][1]

    def test_first_beacon_phase_is_the_first_rng_draw(self, star4):
        sim = Simulator()
        channel = WirelessChannel(sim, star4)
        mac = LMACProtocol(
            sim, channel, 0, rng=np.random.default_rng(7), beacon_interval=5.0
        )
        first = float(np.random.default_rng(7).uniform(0.0, 0.1 * 5.0))
        expected = first + mac._mac_access_delay
        mac.start()
        sim.run_until(float(np.nextafter(expected, 0.0)))
        assert mac.beacons_sent == 0
        sim.run_until(expected)
        assert mac.beacons_sent == 1


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
        build fails (its new neighbour is a plain callback, not an LMAC
        stack) must drop its old plan, which pins a superseded adjacency."""
        topology = line_topology(6)
        sim, channel, macs = build_macs(topology)
        sim.run_until(40.0)
        old_graph = channel.graph
        assert all(
            mac._beacon_plan.adjacency is old_graph._adj[nid]
            for nid, mac in macs.items()
        )

        failed = []
        build = LMACProtocol._build_beacon_plan

        def recording_build(mac, *args):
            plan = build(mac, *args)
            if plan is None:
                failed.append(mac.node_id)
            return plan

        # Node 5 hands its receptions to a plain callback and drifts from
        # the far end of the line to beside node 0.
        channel.register(5, lambda sender, frame: None)
        moved, _ = topology.with_positions_delta({5: (-10.0, 0.0)})
        channel.update_topology(moved)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(LMACProtocol, "_build_beacon_plan", recording_build)
            sim.run_until(45.0)
        assert failed == [0]
        for nid, mac in macs.items():
            plan = mac._beacon_plan
            assert plan is None or plan.adjacency is channel.graph._adj[nid], nid
        assert macs[0]._beacon_plan is None

    def test_relink_that_spares_a_sender_keeps_its_plan(self):
        topology = line_topology(6)
        sim, channel, macs = build_macs(topology)
        sim.run_until(40.0)
        plans = {nid: mac._beacon_plan for nid, mac in macs.items()}
        assert all(plan is not None for plan in plans.values())

        # Node 5 leaves node 4's range: only 4 and 5 change neighbourhood.
        moved, dirty = topology.with_positions_delta({5: (70.0, 0.0)})
        assert dirty == {4, 5}
        channel.update_topology(moved)
        frames = []
        emit = LMACProtocol._emit_beacon

        def recording_emit(mac):
            frames.append(mac.node_id)
            emit(mac)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(LMACProtocol, "_emit_beacon", recording_emit)
            sim.run_until(60.0)
        for nid in (0, 1, 2, 3):
            assert macs[nid]._beacon_plan is plans[nid], nid
            assert nid not in frames, nid
        assert macs[4]._beacon_plan is not plans[4]
        assert macs[4]._beacon_plan.adjacency is channel.graph._adj[4]


class TestFastDeathSweep:
    """A fast tick runs the frame tick's dead-neighbour sweep."""

    # Leaves beacon before the centre in every period.
    PHASES = {1: 0.1, 2: 0.15, 3: 0.2, 4: 0.25, 0: 0.3}

    def _run(self, star4, fast):
        sim = Simulator()
        channel = WirelessChannel(sim, star4)
        macs = {
            nid: LMACProtocol(
                sim, channel, nid, rng=_FixedPhase(phase), beacon_interval=5.0
            )
            for nid, phase in self.PHASES.items()
        }
        lost = {nid: record_losses(mac) for nid, mac in macs.items()}
        frames = []
        emit = LMACProtocol._emit_beacon

        def recording_emit(mac):
            frames.append((mac.node_id, mac.now))
            emit(mac)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(LMACProtocol, "_emit_beacon", recording_emit)
            if not fast:
                # The frame arm: every tick declines the fast path.
                patch.setattr(LMACProtocol, "_try_fast_beacon", lambda mac: False)
            for mac in macs.values():
                mac.start()
            sim.run_until(12.0)
            for leaf in (3, 1):
                channel.set_alive(leaf, False)
                macs[leaf].shutdown()
            sim.run_until(40.0)
        state = {
            "neighbors": {nid: dict(mac.neighbors) for nid, mac in macs.items()},
            "beacons": {nid: mac.beacons_sent for nid, mac in macs.items()},
            "ledger": channel.ledger.breakdown_by_kind(),
            "stats": channel.stats,
        }
        return lost, state, frames

    def test_fast_tick_declares_the_same_deaths_as_the_frame_tick(self, star4):
        fast_lost, fast_state, fast_frames = self._run(star4, fast=True)
        frame_lost, frame_state, _ = self._run(star4, fast=False)
        assert [neighbor for neighbor, _ in fast_lost[0]] == [1, 3]
        # The centre declared both deaths on a fast tick: no frame then.
        died_at = fast_lost[0][0][1]
        assert all(nid != 0 or t != died_at for nid, t in fast_frames)
        assert fast_lost == frame_lost
        assert fast_state == frame_state

    def test_first_contacts_take_the_fast_path(self, star4):
        """Discovery needs no frame: a first contact's one effect is the
        table entry a known sender's beacon refreshes."""
        fast_lost, fast_state, fast_frames = self._run(star4, fast=True)
        frame_lost, frame_state, frame_frames = self._run(star4, fast=False)
        first_period = sorted(nid for nid, t in frame_frames if t < 1.0)
        assert first_period == [0, 1, 2, 3, 4]
        assert [frame for frame in fast_frames if frame[1] < 12.0] == []
        assert fast_lost == frame_lost
        assert fast_state == frame_state
