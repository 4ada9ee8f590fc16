"""LMAC MAC substrate: beacons, discovery, death detection and payload transport."""

from .frames import MAC_CONTROL_KIND, MACFrame
from .lmac import LMACProtocol

__all__ = [
    "MAC_CONTROL_KIND",
    "MACFrame",
    "LMACProtocol",
]
