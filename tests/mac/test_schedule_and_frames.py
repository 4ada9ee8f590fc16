"""Tests for MAC frames."""

from repro.mac.frames import MAC_CONTROL_KIND, MACFrame
from repro.network.addresses import BROADCAST


class TestFrames:
    def test_broadcast_and_payload_flags(self):
        beacon = MACFrame(source=1, destination=BROADCAST)
        assert beacon.is_broadcast
        assert beacon.payload_kind == MAC_CONTROL_KIND

        data = MACFrame(
            source=1, destination=2, payload={"q": 1}, payload_kind="query"
        )
        assert not data.is_broadcast
