"""Base class shared by the dissemination protocols (DirQ and flooding).

Both protocols sit on top of an LMAC instance on every node, receive
payloads through the MAC's upper-layer handler, and report query deliveries
to a :class:`~repro.metrics.audit.QueryAudit` so accuracy and overshoot can
be evaluated against ground truth.  The common wiring lives here.
"""

from __future__ import annotations

from typing import List, Optional

from ..mac.lmac import LMACProtocol
from ..network.addresses import NodeId
from ..network.node import SensorNode
from ..simulation.engine import Simulator


class DisseminationProtocol:
    """Per-node application-layer protocol instance.

    Parameters
    ----------
    sim:
        Simulation engine.
    node:
        The sensor node this protocol instance runs on.
    mac:
        The node's LMAC instance (the protocol installs itself as the MAC's
        upper-layer handler).
    audit:
        Optional query audit used to evaluate accuracy; protocols must call
        :meth:`record_query_receipt` for every query they receive.
    """

    def __init__(
        self,
        sim: Simulator,
        node: SensorNode,
        mac: LMACProtocol,
        audit=None,
    ):
        self.sim = sim
        self.node = node
        self.mac = mac
        self.audit = audit
        # The channel's alive set: the one record of who is alive.
        self._alive_ids = mac.channel.alive
        self.parent: Optional[NodeId] = None
        self.children: List[NodeId] = []
        # No liveness check on the way up: the channel delivers a frame
        # only to an alive receiver, in the event that hands it to LMAC.
        mac.set_upper_handler(self.on_payload)

    # -- identity ------------------------------------------------------------

    @property
    def node_id(self) -> NodeId:
        return self.node.node_id

    @property
    def is_root(self) -> bool:
        return self.node.is_root

    @property
    def alive(self) -> bool:
        return self.node.node_id in self._alive_ids

    # -- tree wiring -----------------------------------------------------------

    def set_tree_links(self, parent: Optional[NodeId], children: List[NodeId]) -> None:
        """Install (or refresh) this node's position in the spanning tree."""
        if parent is not None and parent == self.node_id:
            raise ValueError("a node cannot be its own parent")
        self.parent = parent
        self.children = sorted(children)

    # -- MAC interface ---------------------------------------------------------------

    def on_payload(self, sender: NodeId, payload) -> None:
        """Handle an upper-layer payload delivered by the MAC."""
        raise NotImplementedError

    # -- audit helpers -----------------------------------------------------------------

    def record_query_receipt(self, query_id: int) -> None:
        if self.audit is not None:
            self.audit.record_receipt(query_id, self.node_id)

    def record_source_claim(self, query_id: int) -> None:
        if self.audit is not None:
            self.audit.record_source_claim(query_id, self.node_id)
