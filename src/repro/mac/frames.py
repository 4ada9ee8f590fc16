"""MAC frame formats.

LMAC's TDMA slots are elided (see :mod:`repro.mac.lmac`), and with them the
control section real LMAC frames carry for slot self-organisation.  A frame
is therefore just addressing plus an optional upper-layer payload (DirQ /
flooding messages); a frame without a payload is a control beacon, which
receivers use for neighbour discovery and death detection only.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from ..network.addresses import NodeId

#: Ledger kind used for LMAC control traffic.  The paper's cost comparison
#: (§5, §7) counts only query/update traffic, because the MAC layer's own
#: overhead is identical whichever dissemination scheme runs on top of it;
#: metrics exclude this kind from protocol-cost aggregation.
MAC_CONTROL_KIND = "mac_control"


@dataclasses.dataclass(frozen=True, slots=True)
class MACFrame:
    """One over-the-air LMAC frame.

    Attributes
    ----------
    source:
        Transmitting node.
    destination:
        Target node id, or :data:`~repro.network.addresses.BROADCAST`.
    payload:
        Upper-layer message, or ``None`` for a control-only beacon.
    """

    source: NodeId
    destination: NodeId
    payload: Any = None
