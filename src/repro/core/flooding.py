"""Flooding baseline (paper §5.1).

The comparison point for every reproduced figure: when a query is injected,
the root broadcasts it and *every* node rebroadcasts it exactly once,
regardless of how many neighbours it has -- "even if a node does not have
any other neighbor apart from the node it has received a message from, it
still carries out a broadcast operation".  With unit costs this yields
``C_F = N + 2 x links`` per query (eq. 3), which the simulation reproduces
exactly (verified by tests).

Flooding needs no routing state, no updates, and no estimates; its only
traffic kind is :data:`~repro.core.messages.FLOOD_KIND`.
"""

from __future__ import annotations

from typing import Set

from ..mac.lmac import LMACProtocol
from ..network.addresses import NodeId
from ..network.node import SensorNode
from ..simulation.engine import Simulator
from .messages import FLOOD_KIND, RangeQuery
from .protocol import DisseminationProtocol


class FloodingNode(DisseminationProtocol):
    """Flooding participant: rebroadcast every new query exactly once."""

    def __init__(
        self,
        sim: Simulator,
        node: SensorNode,
        mac: LMACProtocol,
        audit=None,
    ):
        super().__init__(sim, node, mac, audit)
        self.queries_received = 0
        self.queries_rebroadcast = 0
        self._seen: Set[int] = set()

    def on_epoch(self, epoch: int) -> None:
        """Flooding keeps no per-epoch state: a no-op the runner never calls.

        It stays in this class body while perfbench's ``tick.on_epoch``
        span wraps it there.
        """

    def on_payload(self, sender: NodeId, payload) -> None:
        if not isinstance(payload, RangeQuery):
            return
        self.queries_received += 1
        if payload.query_id in self._seen:
            # Duplicate receptions are still received (and already paid for
            # by the channel) but are not rebroadcast again.
            return
        self._seen.add(payload.query_id)
        self.record_query_receipt(payload.query_id)
        self._evaluate_source(payload)
        self.mac.broadcast(payload, FLOOD_KIND)
        self.queries_rebroadcast += 1

    def _evaluate_source(self, query: RangeQuery) -> None:
        """Source check against the node's *current* reading.

        Flooding reaches every node, so unlike DirQ the check uses the live
        sensor value rather than stored range state: the reading of the
        epoch under way, in which the runner injects the query and the
        flood settles.
        """
        if not self.node.has_sensor(query.sensor_type):
            return
        value = self.node.sample(query.sensor_type, int(self.sim.now))
        if query.matches(value):
            self.record_source_claim(query.query_id)


class FloodingRoot(FloodingNode):
    """Flooding sink: injects queries by broadcasting them."""

    def __init__(
        self,
        sim: Simulator,
        node: SensorNode,
        mac: LMACProtocol,
        audit=None,
    ):
        if not node.is_root:
            raise ValueError("FloodingRoot must run on the node marked is_root=True")
        super().__init__(sim, node, mac, audit)
        self.queries_injected = 0
        self._next_query_id = 0

    def next_query_id(self) -> int:
        qid = self._next_query_id
        self._next_query_id += 1
        return qid

    def inject_query(self, query: RangeQuery) -> None:
        """Inject a query: the root broadcasts it and marks it as seen."""
        if not self.alive:
            raise RuntimeError("cannot inject a query at a dead root")
        self.queries_injected += 1
        self._seen.add(query.query_id)
        self._evaluate_source(query)
        self.mac.broadcast(query, FLOOD_KIND)
        self.queries_rebroadcast += 1
