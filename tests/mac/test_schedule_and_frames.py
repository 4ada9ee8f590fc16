"""Tests for MAC frames and the cross-layer bus."""

from repro.mac.crosslayer import CrossLayerBus, NeighborFound, NeighborLost
from repro.mac.frames import MAC_CONTROL_KIND, MACFrame
from repro.network.addresses import BROADCAST


class TestFrames:
    def test_broadcast_and_payload_flags(self):
        beacon = MACFrame(source=1, destination=BROADCAST)
        assert beacon.is_broadcast
        assert not beacon.has_payload
        assert beacon.payload_kind == MAC_CONTROL_KIND

        data = MACFrame(
            source=1, destination=2, payload={"q": 1}, payload_kind="query"
        )
        assert not data.is_broadcast
        assert data.has_payload


class TestCrossLayerBus:
    def test_publish_reaches_subscribers_in_order(self):
        bus = CrossLayerBus()
        seen = []
        bus.subscribe(lambda e: seen.append(("a", e.neighbor_id)))
        bus.subscribe(lambda e: seen.append(("b", e.neighbor_id)))
        bus.publish(NeighborLost(node_id=1, neighbor_id=9, time=2.0))
        assert seen == [("a", 9), ("b", 9)]

    def test_duplicate_subscription_ignored(self):
        bus = CrossLayerBus()
        seen = []
        cb = lambda e: seen.append(e)  # noqa: E731
        bus.subscribe(cb)
        bus.subscribe(cb)
        bus.publish(NeighborFound(node_id=0, neighbor_id=2, time=1.0))
        assert len(seen) == 1

    def test_unsubscribe(self):
        bus = CrossLayerBus()
        seen = []
        cb = lambda e: seen.append(e)  # noqa: E731
        bus.subscribe(cb)
        assert bus.unsubscribe(cb) is True
        assert bus.unsubscribe(cb) is False
        bus.publish(NeighborLost(node_id=0, neighbor_id=1, time=0.0))
        assert seen == []

    def test_subscriber_sees_events_in_publish_order(self):
        bus = CrossLayerBus()
        seen = []
        bus.subscribe(seen.append)
        published = [
            NeighborFound(node_id=0, neighbor_id=2, time=1.0),
            NeighborLost(node_id=0, neighbor_id=1, time=1.0),
            NeighborFound(node_id=0, neighbor_id=1, time=2.0),
        ]
        for event in published:
            bus.publish(event)
        assert seen == published
