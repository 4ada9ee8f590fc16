"""LMAC MAC substrate (beacons, discovery, death detection) with cross-layer notifications."""

from .crosslayer import (
    CrossLayerBus,
    CrossLayerEvent,
    NeighborFound,
    NeighborLost,
)
from .frames import MAC_CONTROL_KIND, MACFrame
from .lmac import LMACProtocol

__all__ = [
    "CrossLayerBus",
    "CrossLayerEvent",
    "NeighborFound",
    "NeighborLost",
    "MAC_CONTROL_KIND",
    "MACFrame",
    "LMACProtocol",
]
