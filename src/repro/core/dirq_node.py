"""DirQ protocol logic for a regular (non-root) node -- paper §4.

Each epoch a node samples every sensor it carries, maintains its Range
Tables (equations (1)–(2), Figs. 1–2), and transmits an Update Message to
its parent whenever the aggregated range moved by more than the threshold δ
(Fig. 3).  Queries arriving from the parent are evaluated against the local
Range Tables and forwarded only to the children whose advertised ranges
overlap the queried interval, which is what makes the dissemination
*directed* instead of a flood.

Topology dynamics (§4.2) follow the tree: when the experiment runner
carries the tree over a kill, revival or re-link, it re-installs every
node's tree links, a parent prunes each dead or moved ex-child's entries
from its Range Tables (any resulting range change propagates up the tree),
and every re-parented node re-advertises its ranges to its new parent.
LMAC's death detection prunes the same way through its
``on_neighbor_lost`` hook; it covers a neighbour the MAC wrongly declares
dead on a lossy channel, which the tree still counts as a child.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..mac.lmac import LMACProtocol
from ..network.addresses import NodeId
from ..network.node import SensorNode
from ..simulation.engine import Simulator
from .atc import AdaptiveThresholdController
from .config import DirQConfig
from .messages import (
    ESTIMATE_KIND,
    QUERY_KIND,
    UPDATE_KIND,
    EstimateMessage,
    RangeQuery,
    UpdateMessage,
)
from .protocol import DisseminationProtocol
from .range_table import RangeTableSet


class DirQNode(DisseminationProtocol):
    """DirQ instance on one node.

    Parameters
    ----------
    sim, node, mac, audit:
        See :class:`~repro.core.protocol.DisseminationProtocol`.
    config:
        Protocol configuration (threshold mode, δ, hour length, ...).
    """

    def __init__(
        self,
        sim: Simulator,
        node: SensorNode,
        mac: LMACProtocol,
        config: DirQConfig,
        audit=None,
    ):
        super().__init__(sim, node, mac, audit)
        self.config = config
        self.tables = RangeTableSet(node.node_id)
        self.atc: Optional[AdaptiveThresholdController] = (
            AdaptiveThresholdController(config, node.sensor_types)
            if config.adaptive
            else None
        )
        # Statistics the experiments read off each node.
        self.updates_sent = 0
        self.updates_suppressed = 0
        self.queries_received = 0
        self.queries_forwarded = 0
        self._last_estimate_hour = -1
        # The fixed δ per type: the config's full scales never change
        # under a node.
        self._fixed_delta: Dict[str, float] = {}
        mac.on_neighbor_lost = self._handle_neighbor_lost

    # ------------------------------------------------------------------
    # Threshold handling
    # ------------------------------------------------------------------

    def current_delta(self, sensor_type: str) -> float:
        """Absolute threshold δ currently in force for ``sensor_type``."""
        if self.atc is not None:
            return self.atc.delta_absolute(sensor_type)
        delta = self._fixed_delta.get(sensor_type)
        if delta is None:
            delta = self._fixed_delta[sensor_type] = self.config.absolute_delta(
                sensor_type
            )
        return delta

    # ------------------------------------------------------------------
    # Epoch processing (sampling + range maintenance)
    # ------------------------------------------------------------------

    def on_epoch(self, epoch: int) -> None:
        """Sample all local sensors and run the update trigger (Fig. 1-3).

        For each sensor: sample, feed the ATC, fold the reading into the
        own range (Fig. 1) and evaluate the trigger (Fig. 3).  This is the
        readable reference of the epoch rule.  Trials apply the same rule
        through :class:`repro.experiments.columnar.ColumnarTick`, which
        ``tests/differential/`` holds bit-identical to this body.
        """
        if not self.alive:
            return
        atc = self.atc
        for sensor_type, sensor in self.node.sensors_sorted():
            table = self.tables.table(sensor_type, create=True)
            reading = float(sensor.sample(epoch))
            if atc is not None:
                atc.on_reading(sensor_type, reading)
            delta = self.current_delta(sensor_type)
            table.observe_reading(reading, delta)
            self._maybe_send_update(sensor_type, epoch, table=table, delta=delta)
        if atc is not None and epoch > 0 and epoch % self.config.atc_window_epochs == 0:
            atc.end_window()

    # ------------------------------------------------------------------
    # Update mechanism (upward range propagation)
    # ------------------------------------------------------------------

    def _maybe_send_update(
        self,
        sensor_type: str,
        epoch: int,
        table=None,
        delta: Optional[float] = None,
    ) -> None:
        if table is None:
            table = self.tables.table(sensor_type)
            if table is None:
                return
        if delta is None:
            delta = self.current_delta(sensor_type)
        aggregate = table.pending_update(delta)
        if aggregate is None:
            self.updates_suppressed += 1
            return
        # pending_update returned the current aggregate, so the memo holds.
        table.mark_transmitted(aggregate, delta)
        if self.parent is None:
            # The root keeps its own aggregate current but has nobody to
            # report to.
            return
        self._send_update(sensor_type, epoch, aggregate)

    def _send_removal(self, sensor_type: str, epoch: int) -> None:
        """Withdraw a sensor type from the parent (subtree no longer has it)."""
        if self.parent is not None:
            self._send_update(sensor_type, epoch, (0.0, 0.0), removed=True)

    def _send_update(
        self,
        sensor_type: str,
        epoch: int,
        aggregate: Tuple[float, float],
        removed: bool = False,
    ) -> None:
        """Send one Update Message to the parent; every update goes here."""
        message = UpdateMessage(
            sender=self.node_id,
            sensor_type=sensor_type,
            min_threshold=aggregate[0],
            max_threshold=aggregate[1],
            epoch=epoch,
            removed=removed,
        )
        self.mac.send(self.parent, message, UPDATE_KIND)
        self.updates_sent += 1
        if self.atc is not None:
            self.atc.on_update_sent()
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.record(
                self.sim.now,
                "dirq.update",
                self.node_id,
                sensor_type=sensor_type,
                aggregate=aggregate,
                removed=removed,
            )

    def readvertise(self) -> int:
        """Force a fresh Update Message for every non-empty table.

        Used after the node is re-parented (tree repair) so the new parent
        learns the ranges of the re-attached subtree.  Returns the number of
        updates sent.
        """
        epoch = int(self.sim.now)
        sent = 0
        for table in self.tables.tables():
            aggregate = table.aggregate()
            if aggregate is None or self.parent is None:
                continue
            table.mark_transmitted(aggregate)
            self._send_update(table.sensor_type, epoch, aggregate)
            sent += 1
        return sent

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------

    def on_payload(self, sender: NodeId, payload) -> None:
        if isinstance(payload, UpdateMessage):
            self._handle_update(sender, payload)
        elif isinstance(payload, RangeQuery):
            self._handle_query(sender, payload)
        elif isinstance(payload, EstimateMessage):
            self._handle_estimate(sender, payload)

    # -- updates from children ------------------------------------------------

    def _handle_update(self, sender: NodeId, message: UpdateMessage) -> None:
        # Range Tables are created lazily on the first update mentioning a
        # sensor type, which is how new sensor types introduced after
        # deployment propagate towards the root (paper §1, §4.1 / Fig. 4).
        table = self.tables.table(message.sensor_type, create=True)
        if message.removed:
            table.remove_child(sender)
            if table.is_empty:
                # The whole subtree (including this node) lost the type.
                self.tables.drop(message.sensor_type)
                self._send_removal(message.sensor_type, message.epoch)
                return
        else:
            table.update_child(
                sender, message.min_threshold, message.max_threshold
            )
        self._maybe_send_update(message.sensor_type, message.epoch)

    # -- queries from the parent -------------------------------------------------

    def _handle_query(self, sender: NodeId, query: RangeQuery) -> None:
        self.queries_received += 1
        self.record_query_receipt(query.query_id)
        self.sim.tracer.record(
            self.sim.now, "dirq.query_received", self.node_id, query_id=query.query_id
        )
        self._evaluate_and_forward(query)

    def _evaluate_and_forward(self, query: RangeQuery) -> int:
        """Source check + directed forwarding to overlapping children.

        Returns the number of children the query was forwarded to.
        """
        table = self.tables.table(query.sensor_type)
        if table is None:
            return 0
        if table.own_entry is not None and query.overlaps(
            table.own_entry.min_threshold, table.own_entry.max_threshold
        ):
            self.record_source_claim(query.query_id)
        forwarded = 0
        for child in self.children:
            entry = table.child_entry(child)
            if entry is None:
                continue
            if query.overlaps(entry.min_threshold, entry.max_threshold):
                self.mac.send(child, query, QUERY_KIND)
                forwarded += 1
        self.queries_forwarded += forwarded
        return forwarded

    # -- estimates from the root ---------------------------------------------------

    def _handle_estimate(self, sender: NodeId, message: EstimateMessage) -> None:
        if message.hour_index <= self._last_estimate_hour:
            return
        self._last_estimate_hour = message.hour_index
        if self.atc is not None:
            self.atc.on_estimate(message.node_update_budget)
        self._relay_estimate(message)

    def _relay_estimate(self, message: EstimateMessage) -> None:
        """Send the hourly estimate to every child, so it reaches every node."""
        for child in self.children:
            self.mac.send(child, message, ESTIMATE_KIND)

    # ------------------------------------------------------------------
    # Cross-layer topology adaptation (paper §4.2)
    # ------------------------------------------------------------------

    def set_tree_links(self, parent: Optional[NodeId], children: List[NodeId]) -> None:
        """Install new tree links, then forget every ex-child's ranges.

        An ex-child's subtree now reports to another parent (or to none),
        so its entries would only attract queries this node can no longer
        route.  The resulting update or removal goes to the new parent.
        """
        ex_children = sorted(set(self.children).difference(children))
        super().set_tree_links(parent, children)
        for child in ex_children:
            self._forget_child(child)

    def _forget_child(self, child: NodeId) -> None:
        """Drop ``child``'s entries and propagate any range change (§4.2)."""
        changed_types = self.tables.remove_child_everywhere(child)
        epoch = int(self.sim.now)
        for sensor_type in changed_types:
            table = self.tables.table(sensor_type)
            if table is not None and table.is_empty:
                self.tables.drop(sensor_type)
                self._send_removal(sensor_type, epoch)
            else:
                self._maybe_send_update(sensor_type, epoch)

    def _handle_neighbor_lost(self, neighbor: NodeId) -> None:
        if not self.alive:
            return
        self.sim.tracer.record(
            self.sim.now, "dirq.neighbor_lost", self.node_id, neighbor=neighbor
        )
        if neighbor in self.children:
            self.children = [c for c in self.children if c != neighbor]
        # A real death or move was already pruned when the runner
        # re-installed the tree links; this covers a live neighbour LMAC
        # wrongly declares dead on a lossy channel, which the runner's tree
        # still counts as a child.
        self._forget_child(neighbor)
        # Parent loss is repaired by the tree-maintenance machinery in the
        # experiment runner (a new parent is installed via set_tree_links and
        # the node re-advertises); nothing to do locally here.
