"""Wireless channel: broadcast/unicast delivery with unit-cost accounting.

The channel is the only component allowed to charge energy: every MAC frame
that is transmitted counts one transmission for the sender and one
reception for every receiver in the ledger, which prices each at one unit
(paper §5).  The per-message *kind* is recorded so the metrics layer can
split costs into query / update / estimate / flood traffic exactly as §5
does.

A frame has two halves.  The *transmit half* (:meth:`WirelessChannel.
_transmit`, the one entry every transmission takes) checks the sender,
picks the targets -- the alive neighbours of a broadcast, the addressee of
a unicast -- and charges the sender's transmission.  The *delivery half*
(:meth:`WirelessChannel._deliver`) runs :data:`PROPAGATION_DELAY` later:
it draws the loss of every target in one vectorised draw and walks the
surviving targets in one event, instead of one closure per receiver.

LMAC hands the channel each frame with its transmit time
(:meth:`WirelessChannel.send_frame`), and the channel runs both halves in
*one* event at the delivery time whenever the two instants share a runner
window (:func:`~repro.simulation.engine.same_window`).  Nothing inside a
window changes liveness or links, and nothing reads the ledger or the
stats, so the transmit half's effects cannot be seen to move from the
transmit time to the delivery time.  A frame whose two halves a
checkpoint separates runs its transmit half at the transmit time -- in
its own transmit event, or inline when that time is now (a frame beacon)
-- and its delivery half in a delivery event; so does every frame while
the tracer is on, so that ``channel.tx`` records keep their time.
``ChannelStats.frames_split`` counts the frames that needed a transmit
event.

A reception is charged when the frame is *delivered*, not when it is
transmitted: a receiver that dies while the frame is in flight is recorded
as a drop and is never charged, so the ledger and the channel stats
always agree about how many receptions actually happened.

Determinism contract
--------------------
*Draws at delivery.*  The loss draw runs in the delivery half, one uniform
per target in target order, from the channel's named stream.  Deliveries
run in transmit order (below), so the stream is consumed draw for draw
as if every frame drew at its transmission.

*The ordering rule.*  Every delivery is a ``MAC``-priority event whose
last tie-breaker is the key of its transmission: ``(tx_time, priority,
seq)``, with the priority of the event that transmits it (``DEFAULT``
for a payload frame, whose transmission is LMAC's access-delay event;
``TIMER`` for a frame beacon, sent from its beacon tick) and a sequence
number taken when the frame is handed over.  Deliveries that share a
delivery time therefore run in the order their transmissions did, even
when a beacon tick lands exactly on a payload's transmit time.  A bare
sequence number would put such a beacon behind the payload.

Batched delivery is **stream-equivalent** to one event per receiver:
``tests/differential/reference.py`` keeps the per-receiver formulation
(and the two-event frame) as test oracles, and
``tests/experiments/test_fastpath_determinism.py`` pins them against each
other by `TrialResult` fingerprint.  Lossy channels require an rng at
construction (there is no silent fallback RNG that could decouple a trial
from its seed), and ``loss_probability`` accepts the full [0, 1] range
including the 1.0 endpoint.

The channel never mutates the adjacency map: it shares the topology's
map by reference, and membership is fixed at construction (a node joins
a trial by activation, :meth:`WirelessChannel.set_alive`).

Liveness is one set, :attr:`WirelessChannel.alive`, written only by
:meth:`WirelessChannel.set_alive`.  It is the trial's one liveness
record: the runner's ``SimulationWorld.alive`` is this very set, LMAC
checks its senders and receivers against it, and the protocols read
their own liveness from it.
"""

from __future__ import annotations

import dataclasses
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from ..energy.ledger import NetworkLedger
from ..obs.metrics import NULL_METRICS, MetricsRegistry
from ..simulation.engine import Simulator, same_window
from ..simulation.events import EventPriority
from ..simulation.trace import NULL_TRACER, Tracer
from .addresses import BROADCAST, NodeId, validate_node_id
from .topology import Topology

ReceiveCallback = Callable[[NodeId, Any], None]
"""Signature of a node's receive hook: ``(sender_id, frame) -> None``."""

#: Simulated delay between a transmission and its receptions.  Kept well
#: below one epoch so all per-epoch protocol exchanges settle before the
#: next sampling round.
PROPAGATION_DELAY = 1e-3

_MAC = int(EventPriority.MAC)
_DEFAULT = int(EventPriority.DEFAULT)


@dataclasses.dataclass
class ChannelStats:
    """Aggregate channel counters (independent of the energy ledger)."""

    broadcasts: int = 0
    unicasts: int = 0
    deliveries: int = 0
    drops_dead_node: int = 0
    drops_loss: int = 0
    drops_no_link: int = 0
    #: Frames handed over by :meth:`WirelessChannel.send_frame` that needed
    #: a transmit event of their own (a checkpoint, or the tracer, split
    #: their two halves).
    frames_split: int = 0


class WirelessChannel:
    """Unit-disk wireless medium shared by all nodes.

    Parameters
    ----------
    sim:
        The simulation engine used to schedule deliveries.
    topology:
        Connectivity (who can hear whom).  Its adjacency map is shared by
        reference; node death leaves the alive set, not the map.
    ledger:
        Network-wide ledger the channel counts every transmission and
        reception in.  A fresh one is created when omitted.
    loss_probability:
        Independent probability that any individual reception fails.  The
        paper's evaluation uses an ideal channel (0.0), but tests and
        ablations exercise lossy settings -- including the ``1.0``
        "all receptions fail" ablation.
    rng:
        Random generator for loss draws.  Required whenever
        ``loss_probability > 0`` (validated at construction time so a lossy
        channel can never silently behave as an ideal one).
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`.  The only
        live observation is the per-broadcast fan-out histogram (guarded
        by ``metrics.enabled``, like the tracer); the counter metrics are
        harvested from :class:`ChannelStats` at trial end, so disabled
        metrics cost nothing per transmission.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        ledger: Optional[NetworkLedger] = None,
        loss_probability: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if not (0.0 <= loss_probability <= 1.0):
            raise ValueError("loss_probability must be in [0, 1]")
        if loss_probability > 0.0 and rng is None:
            raise ValueError(
                "loss_probability > 0 requires an rng for the loss draws"
            )
        self.sim = sim
        # Topology is immutable (a move returns a copy), so the channel
        # shares its adjacency map by reference: at n=5000 this turns every
        # mobility re-link's update_topology from an O(V+E) copy into a
        # pointer swap.
        self.adjacency = topology.adjacency
        self.ledger = ledger if ledger is not None else NetworkLedger()
        self.loss_probability = float(loss_probability)
        self.propagation_delay = PROPAGATION_DELAY
        self.rng = rng
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.stats = ChannelStats()
        self._receivers: Dict[NodeId, ReceiveCallback] = {}
        self._alive: Set[NodeId] = set(self.adjacency)
        #: Bumped by every :meth:`set_alive` and :meth:`register` call, so a
        #: cache of who is alive and who listens (LMAC's beacon plans)
        #: revalidates only after one of them ran.
        self.membership = 0
        # Per-kind event labels, built once (one event per frame makes the
        # label f-string a per-frame cost otherwise).
        self._delivery_labels: Dict[str, str] = {}
        self._transmit_labels: Dict[str, str] = {}

    # -- registration ---------------------------------------------------------

    def register(self, node_id: NodeId, receiver: ReceiveCallback) -> None:
        """Attach the receive hook for ``node_id`` (normally its MAC layer)."""
        validate_node_id(node_id)
        if node_id not in self.adjacency:
            raise KeyError(f"node {node_id} is not part of the channel topology")
        self._receivers[node_id] = receiver
        self.membership += 1

    # -- topology dynamics ------------------------------------------------------

    def set_alive(self, node_id: NodeId, alive: bool) -> None:
        """Mark a node dead (it no longer transmits or receives) or alive."""
        if node_id not in self.adjacency:
            raise KeyError(f"unknown node {node_id}")
        if alive:
            self._alive.add(node_id)
        else:
            self._alive.discard(node_id)
        self.membership += 1

    @property
    def alive(self) -> Set[NodeId]:
        """The ids of the alive nodes: the set itself, to read, not to edit.

        The set is fixed for the channel's life, so a reader may keep it;
        :meth:`set_alive` is its one writer.
        """
        return self._alive

    def update_topology(self, topology: Topology) -> None:
        """Adopt the new links after node movement (mobility scenarios).

        The node set must be unchanged: mobility moves nodes, it never adds
        or removes them (use :meth:`set_alive` for that).  The alive set
        and the registered receivers are kept -- only who-can-hear-whom
        changes.  The new map is adopted by reference (see ``__init__``).
        """
        if topology.adjacency.keys() != self.adjacency.keys():
            raise ValueError(
                "update_topology requires the same node set; "
                "use set_alive for membership changes"
            )
        self.adjacency = topology.adjacency

    @property
    def num_links(self) -> int:
        """Links between currently-alive nodes.

        Every edge minus those touching a dead node, found by walking only
        the dead nodes' adjacency: the runner prices flooding with this on
        every topology change.  Radio graphs carry no self-loops, so each
        edge appears exactly twice in the adjacency.
        """
        adj = self.adjacency
        alive = self._alive
        links = sum(map(len, adj.values())) // 2
        for nid, nbrs in adj.items():
            if nid in alive:
                continue
            for other in nbrs:
                # A dead-dead edge is met from both ends; count it once.
                if other in alive or nid < other:
                    links -= 1
        return links

    # -- transmission -----------------------------------------------------------

    def broadcast(self, sender: NodeId, frame: Any, kind: str) -> int:
        """One-hop broadcast from ``sender``, transmitted now.

        Charges the sender one transmission now; every alive neighbour
        whose reception survives the loss draw is charged one reception
        when the frame is delivered (whether or not the neighbour's
        protocol cares about the frame), exactly matching the paper's
        flooding cost accounting.

        Returns the number of receptions scheduled: the alive neighbours.
        The loss draw happens at delivery.
        """
        return self._transmit_now(sender, BROADCAST, frame, kind)

    def unicast(self, sender: NodeId, dest: NodeId, frame: Any, kind: str) -> int:
        """Unicast from ``sender`` to a one-hop neighbour ``dest``, transmitted now.

        Charges one transmission and (at delivery) one reception.  Returns 1
        when a reception was scheduled, 0 if the frame reached nobody
        (dead node, missing link); the loss draw happens at delivery.
        """
        validate_node_id(dest)
        return self._transmit_now(sender, dest, frame, kind)

    def send_frame(
        self,
        sender: NodeId,
        dest: NodeId,
        frame: Any,
        kind: str,
        tx_time: float,
        priority: int = _DEFAULT,
    ) -> None:
        """Take a MAC frame that ``sender`` transmits at ``tx_time``.

        ``sender`` is a registered node; ``dest`` a node id or
        :data:`~repro.network.addresses.BROADCAST`; ``tx_time`` is now or
        later; ``priority`` is that of the event that transmits the frame
        (see the module docstring's ordering rule).  The frame is
        delivered one propagation delay after ``tx_time``, in one event
        when no runner checkpoint falls between.  A sender that is dead at
        ``tx_time`` transmits nothing and costs nothing.
        """
        sim = self.sim
        seq = sim.next_seq()
        rx_time = tx_time + self.propagation_delay
        order = (tx_time, priority, seq)
        if not self.tracer.enabled and same_window(tx_time, rx_time):
            label = self._delivery_labels.get(kind)
            if label is None:
                label = self._delivery_labels[kind] = f"deliver[{kind}]"
            deliver = partial(self._frame, sender, dest, frame, kind)
            sim.schedule_at(rx_time, deliver, _MAC, label, order)
        elif tx_time == sim.now:
            self._frame_transmit(sender, dest, frame, kind, rx_time, order)
        else:
            self.stats.frames_split += 1
            label = self._transmit_labels.get(kind)
            if label is None:
                label = self._transmit_labels[kind] = f"transmit[{kind}]"
            transmit = partial(
                self._frame_transmit, sender, dest, frame, kind, rx_time, order
            )
            sim.schedule_at(tx_time, transmit, priority, label, seq)

    # -- internals ----------------------------------------------------------------

    def _transmit_now(self, sender: NodeId, dest: NodeId, frame: Any, kind: str) -> int:
        """:meth:`broadcast`/:meth:`unicast`: check the sender, transmit now."""
        validate_node_id(sender)
        if sender not in self.adjacency:
            raise KeyError(f"unknown sender {sender}")
        if sender not in self._alive:
            self.stats.drops_dead_node += 1
            return 0
        now = self.sim.now
        return self._frame_transmit(
            sender,
            dest,
            frame,
            kind,
            now + self.propagation_delay,
            (now, _DEFAULT, self.sim.next_seq()),
        )

    def _frame(self, sender: NodeId, dest: NodeId, frame: Any, kind: str) -> None:
        """A frame's one event: its transmit half, then its delivery half."""
        if sender not in self._alive:
            return
        targets = self._transmit(sender, dest, kind)
        if targets:
            self._deliver(sender, targets, frame, kind)

    def _frame_transmit(
        self,
        sender: NodeId,
        dest: NodeId,
        frame: Any,
        kind: str,
        rx_time: float,
        order: Tuple[float, int, int],
    ) -> int:
        """A transmit half on its own; the delivery half gets an event.

        Returns the number of receptions scheduled.
        """
        if sender not in self._alive:
            return 0
        targets = self._transmit(sender, dest, kind)
        if targets:
            self._schedule_delivery(sender, targets, frame, kind, rx_time, order)
        return len(targets)

    def _transmit(self, sender: NodeId, dest: NodeId, kind: str) -> List[NodeId]:
        """The transmit half of a live sender's transmission.

        Picks the targets, counts the transmission, charges the sender's
        transmission and records ``channel.tx``.  Returns the targets.
        """
        alive = self._alive
        stats = self.stats
        adjacency = self.adjacency[sender]
        if dest == BROADCAST:
            targets = [n for n in adjacency if n in alive]
            stats.broadcasts += 1
            if self.metrics.enabled:
                self.metrics.observe("channel.fanout", len(targets))
        else:
            if dest not in adjacency:
                stats.drops_no_link += 1
                # The transmission still happens (and is still paid for); it
                # simply reaches nobody, as on a real radio.
                targets = []
            elif dest not in alive:
                stats.drops_dead_node += 1
                targets = []
            else:
                targets = [dest]
            stats.unicasts += 1

        # Inlined ledger.node(sender).charge_tx(kind), as the delivery loop
        # charges receptions.
        ledger = self.ledger
        node_ledger = ledger._nodes.get(sender)
        if node_ledger is None:
            node_ledger = ledger.node(sender)
        node_ledger._entries[("tx", kind)].count += 1
        if self.tracer.enabled:
            self.tracer.record(
                self.sim.now,
                "channel.tx",
                sender,
                dest=dest,
                kind=kind,
                targets=len(targets),
            )
        return targets

    def _schedule_delivery(
        self,
        sender: NodeId,
        targets: List[NodeId],
        frame: Any,
        kind: str,
        rx_time: float,
        order: Tuple[float, int, int],
    ) -> None:
        """Schedule a transmitted frame's delivery half as its own event."""
        label = self._delivery_labels.get(kind)
        if label is None:
            label = self._delivery_labels[kind] = f"deliver[{kind}]"
        deliver = partial(self._deliver, sender, targets, frame, kind)
        self.sim.schedule_at(rx_time, deliver, _MAC, label, order)

    def _deliver(
        self, sender: NodeId, targets: List[NodeId], frame: Any, kind: str
    ) -> None:
        """The delivery half: the loss draw, then every surviving reception.

        Receptions are charged here, per target, at delivery time: a
        target that died while the frame was in flight is counted as
        ``drops_dead_node`` and never charged, keeping the ledger and the
        delivery stats consistent.
        """
        stats = self.stats
        loss = self.loss_probability
        if loss > 0.0:
            # One vectorised draw per transmission; numpy's Generator yields
            # the same stream as per-target random() calls.
            draws = self.rng.random(len(targets))
            survivors = [
                target for target, draw in zip(targets, draws) if draw >= loss
            ]
            stats.drops_loss += len(targets) - len(survivors)
            targets = survivors
        alive = self._alive
        receivers = self._receivers
        tracer = self.tracer
        ledger = self.ledger
        ledger_nodes = ledger._nodes
        rx_key = ("rx", kind)
        traced = tracer.enabled
        for target in targets:
            if target not in alive:
                stats.drops_dead_node += 1
                continue
            # Inlined ledger.node(target).charge_rx(kind): one reception
            # is charged per frame per alive target, and this loop runs
            # for every reception of a trial.
            node_ledger = ledger_nodes.get(target)
            if node_ledger is None:
                node_ledger = ledger.node(target)
            node_ledger._entries[rx_key].count += 1
            receiver = receivers.get(target)
            if receiver is None:
                continue
            stats.deliveries += 1
            if traced:
                tracer.record(
                    self.sim.now, "channel.rx", target, sender=sender, kind=kind
                )
            receiver(sender, frame)
