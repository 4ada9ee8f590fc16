"""LMAC MAC substrate: beacons, discovery, death detection and payload transport."""

from .lmac import MAC_CONTROL_KIND, LMACProtocol

__all__ = [
    "MAC_CONTROL_KIND",
    "LMACProtocol",
]
