"""LMAC: the MAC services DirQ consumes.

DirQ runs on LMAC (van Hoesel & Havinga, reference [2] of the paper) and
uses exactly three of its services, which is all this module models:

* **Neighbour discovery.**  Every node broadcasts a control beacon once per
  ``beacon_interval`` epochs.  The first frame heard from an unknown node
  makes it a neighbour.
* **Death detection.**  Each neighbour carries a count of beacon periods
  since any frame (beacon or data) was last heard from it.  A beacon tick
  first increments every count, then declares dead -- in ascending id
  order -- the neighbours that reached ``death_threshold``, calling
  :attr:`LMACProtocol.on_neighbor_lost` with each one.  DirQ installs that
  hook to prune its Range Tables (paper §4.2).
* **Payload transport.**  The upper layer sends unicast or broadcast
  payloads through :meth:`LMACProtocol.send`; each one is transmitted after
  a constant MAC access delay and delivered to the destination's
  upper-layer handler.

Timing model
------------
The paper's metrics are message counts, not latencies, so the TDMA frame
structure is elided: there are no slots, no slot election and no
occupancy bookkeeping.  Waiting for the node's own slot is modelled as the
constant ``_mac_access_delay``, and beacons -- which in LMAC ride in every
owned slot -- are coarsened to one per ``beacon_interval`` epochs.  The
per-node RNG draws exactly one value: the start-up beacon phase.

With the slots goes the control section real LMAC frames carry, so a
frame is just its upper-layer payload, and a beacon's is ``None``.  No
addressing travels with it: the channel names the sender to every
receiver and delivers a unicast to its addressee alone.

A payload frame is therefore transmitted at ``send time + access delay``
and a frame beacon at its tick; either way LMAC hands the frame and its
transmit time to the channel (:meth:`WirelessChannel.send_frame`), which
transmits and delivers it in one engine event when no runner checkpoint
falls between the transmission and the delivery.  The transmit time is
no event of its own: a sender alive at the send is alive at its
transmission within one runner window, and a frame a checkpoint splits
gets its transmit event from the channel.  The beacon timer is one
pending event at a time, held in ``LMACProtocol._beacon``: each tick
(:meth:`LMACProtocol._beacon_tick`) schedules the next, and only
:meth:`LMACProtocol.wake` and :meth:`LMACProtocol.shutdown` cancel one.

Beacon fast path
----------------
Every beacon tick first tries :meth:`LMACProtocol._try_fast_beacon`: when
the beacon's effects are provably only the steady-state bookkeeping
(lossless channel, tracer off, delivery inside the same runner window --
the predicate the channel's one-event frames use,
:func:`~repro.simulation.engine.same_window` -- LMAC receivers whose own
beacons do not fire in the propagation window), it applies the charges
and neighbour-table writes directly, with no frame and no delivery event.
Otherwise the tick sends a frame beacon (:meth:`LMACProtocol._emit_beacon`),
the readable reference that the differential harness's oracle
(``tests/differential/reference.py``) forces on every tick.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

import numpy as np

from ..network.addresses import BROADCAST, NodeId
from ..network.channel import WirelessChannel
from ..simulation.engine import Simulator, same_window
from ..simulation.events import Event, EventPriority

#: Ledger kind used for LMAC control traffic.  The paper's cost comparison
#: (§5, §7) counts only query/update traffic, because the MAC layer's own
#: overhead is identical whichever dissemination scheme runs on top of it;
#: metrics exclude this kind from protocol-cost aggregation.
MAC_CONTROL_KIND = "mac_control"

UpperLayerHandler = Callable[[NodeId, Any], None]
"""Upper-layer receive hook: ``(sender_id, payload) -> None``."""

_TIMER = int(EventPriority.TIMER)


def _beacon_due(mac: "LMACProtocol", deadline: float) -> bool:
    """Whether ``mac``'s pending beacon tick fires at or before ``deadline``."""
    event = mac._beacon
    return event is not None and not event.cancelled and event.time <= deadline


class _BeaconTarget:
    """One receiver's slice of a cached fast-beacon delivery plan.

    Full rows (``_BeaconPlan.rows``) are LMAC receivers; charge-only rows
    (``_BeaconPlan.charge``) are targets with no registered receiver and
    use only ``target``/``rx_entry``.  Every referenced object is
    identity-stable, so revalidation is identity and liveness checks only.
    """

    __slots__ = ("target", "callback", "neighbors", "mac", "rx_entry")


class _BeaconPlan:
    """Cached fast-beacon delivery plan for one sender (see _try_fast_beacon).

    The plan is keyed by the sender's neighbour dict in the channel's
    adjacency map: a re-link that leaves the sender's neighbourhood alone
    shares that dict (``Topology.with_positions_delta``), so the plan
    survives it.
    ``dead`` holds targets that were dead at build time (free while dead;
    revival invalidates the plan), so ``targets`` is a plan constant.
    ``membership`` is the channel's membership counter when the targets
    were last found as planned: liveness and registration can only have
    changed since if the counter moved.
    """

    __slots__ = (
        "adjacency", "rows", "charge", "dead", "targets", "tx_entry", "membership"
    )


class LMACProtocol:
    """LMAC instance running on one node.

    Parameters
    ----------
    sim:
        Simulation engine.
    channel:
        Shared wireless channel.
    node_id:
        Identifier of the node this MAC instance serves.
    rng:
        Random generator for the start-up beacon phase.
    beacon_interval:
        Epochs between control beacons (the elided-frames coarsening knob).
    death_threshold:
        Consecutive missed beacons after which a neighbour is declared dead.
    """

    def __init__(
        self,
        sim: Simulator,
        channel: WirelessChannel,
        node_id: NodeId,
        rng: Optional[np.random.Generator] = None,
        beacon_interval: float = 10.0,
        death_threshold: int = 3,
    ):
        self.sim = sim
        self.channel = channel
        self.node_id = node_id
        # Fallback is seeded from the node id, so even unmanaged
        # construction (unit tests, notebooks) is deterministic.
        if rng is None:
            rng = np.random.default_rng(node_id)  # reprolint: disable=RL104
        self.rng = rng
        #: Known neighbours -> beacon periods since a frame was last heard.
        self.neighbors: dict[NodeId, int] = {}
        #: Called with each neighbour the death sweep declares dead (the
        #: cross-layer notification of paper §4.2); ``None`` when no upper
        #: layer listens.
        self.on_neighbor_lost: Optional[Callable[[NodeId], None]] = None
        self.beacon_interval = float(beacon_interval)
        self.death_threshold = int(death_threshold)
        if self.beacon_interval <= 0:
            raise ValueError("beacon_interval must be positive")
        if self.death_threshold < 1:
            raise ValueError("death_threshold must be >= 1")
        self._upper_handler: Optional[UpperLayerHandler] = None
        # Plain int counters harvested into obs metrics at trial end --
        # an unconditional increment costs less than any enabled-check here.
        self.beacons_sent = 0
        #: Beacons sent as frames (the fast path declined the tick).
        self.frame_beacons_sent = 0
        # Delivery plan of the beacon fast path (see _try_fast_beacon).
        self._beacon_plan: Optional[_BeaconPlan] = None
        self._mac_access_delay = 1e-4
        self._started = False
        #: The pending beacon tick, ``None`` while none is scheduled.
        self._beacon: Optional[Event] = None
        self._beacon_label = f"lmac[{node_id}].timer.beacon"
        channel.register(node_id, self._on_channel_receive)

    # -- wiring -----------------------------------------------------------------

    def set_upper_handler(self, handler: UpperLayerHandler) -> None:
        """Install the upper-layer (DirQ / flooding) receive hook."""
        self._upper_handler = handler

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> None:
        """Start the MAC: :meth:`on_start` runs on the first call only."""
        if self._started:
            return
        self._started = True
        self.on_start()

    def on_start(self) -> None:
        """Arm the first beacon, at a random start-up phase."""
        # Desynchronise the first beacon slightly per node so that start-up
        # beacons do not all land on the same simulated instant.
        offset = float(self.rng.uniform(0.0, self.beacon_interval * 0.1))
        self._arm_beacon(offset + self._mac_access_delay)

    def shutdown(self) -> None:
        """Stop all MAC activity (used when the node dies)."""
        if self._beacon is not None:
            self._beacon.cancel()
            self._beacon = None

    def wake(self) -> None:
        """(Re)start beaconing, e.g. for a node added after deployment.

        Safe to call on an already-running instance: a pending beacon is
        cancelled and the next one armed one access delay from now.
        """
        self._arm_beacon(self._mac_access_delay)

    def _arm_beacon(self, delay: float) -> None:
        """Schedule the next beacon tick ``delay`` from now, replacing any."""
        if self._beacon is not None:
            self._beacon.cancel()
        sim = self.sim
        self._beacon = sim.schedule_at(
            sim.now + delay, self._beacon_tick, _TIMER, self._beacon_label
        )

    # -- sending ---------------------------------------------------------------------

    def send(self, destination: NodeId, payload: Any, kind: str) -> None:
        """Transmit an upper-layer payload after the MAC access delay.

        ``destination`` may be a one-hop neighbour id or
        :data:`~repro.network.addresses.BROADCAST`.
        """
        channel = self.channel
        if self.node_id not in channel._alive:
            return
        # Waiting for the owned slot is modelled as a small constant latency.
        channel.send_frame(
            self.node_id,
            destination,
            payload,
            kind,
            self.sim.now + self._mac_access_delay,
        )

    def broadcast(self, payload: Any, kind: str) -> None:
        """Convenience wrapper for a one-hop broadcast."""
        self.send(BROADCAST, payload, kind)

    # -- beaconing and neighbourhood maintenance ----------------------------------------

    def _beacon_tick(self) -> None:
        if self.node_id not in self.channel._alive:
            self._beacon = None
            return
        if not self._try_fast_beacon():
            self._emit_beacon()
        self._check_dead_neighbors()
        # The event that fired is the pending beacon: nothing to cancel.
        sim = self.sim
        self._beacon = sim.schedule_at(
            sim.now + self.beacon_interval,
            self._beacon_tick,
            _TIMER,
            self._beacon_label,
        )

    def _try_fast_beacon(self) -> bool:
        """Apply one beacon's emission and delivery without a frame.

        Returns ``True`` when the beacon (transmit charge and delivery to
        every receiver) was applied directly; ``False`` demands the
        reference path, :meth:`_emit_beacon`.  Either way the caller then
        runs the same dead-neighbour sweep at the same ``now``.
        Eligibility is conservative: the direct application is used only
        when it is provably bit-identical to emitting a real frame, which
        requires

        * a lossless channel (loss draws consume the channel RNG stream in
          transmission order) and a disabled tracer (the direct path emits
          no ``channel.tx``/``channel.rx`` records);
        * the delivery instant ``now + propagation_delay`` falling in the
          same runner window as ``now`` (:func:`same_window`: the runner
          reads the ledger at its checkpoints, so a reception charge must
          not migrate across one);
        * every alive receiver being a plain LMAC stack;
        * no receiver's own beacon timer firing inside the propagation
          window (its dead-neighbour sweep must order with this delivery
          exactly as the event queue would order them).

        Under those conditions every effect of the delivery is private
        per-(receiver, sender) state or epoch-aggregated accounting, so
        applying it at tick time instead of delivery time is unobservable.
        A receiver's one write is ``neighbors[sender] = 0`` whether or not
        it knew the sender (a first contact's ``lmac.neighbor_found``
        record needs the tracer, which is off); a first contact may enter
        the table ahead of another sender's in-flight one, but the only
        walk of the table, the death sweep, sorts what it declares.  The
        sweep that follows is the same call on both paths: it touches
        only this node's neighbour counts, and the
        :attr:`on_neighbor_lost` hook it calls touches only this node's
        tables and sends.  The skipped delivery event carried
        receiver-private effects alone, so dropping its sequence number
        reorders no other pair of events.

        The per-receiver eligibility data is cached in a *beacon plan*
        (see :class:`_BeaconTarget`), keyed by this node's neighbour dict
        in the channel's adjacency map (no map is mutated in place, so the
        dict's identity pins its contents): every object a row holds -- the
        receiver's bound method, its neighbour dict, its ledger entry, its
        MAC -- is identity stable, so a tick revalidates identities and
        liveness instead of rebuilding the delivery list, and only when
        :attr:`WirelessChannel.membership` moved since the plan last
        passed.  The receivers' beacons are looked at only when some
        event is due inside the propagation window
        (:meth:`Simulator.next_time`, a lower bound, is at or before the
        delivery instant): a pending beacon sits in the event queue.
        """
        channel = self.channel
        if channel.loss_probability > 0.0 or channel.tracer.enabled:
            return False
        now = self.sim.now
        rx_deadline = now + channel.propagation_delay
        if not same_window(now, rx_deadline):
            return False
        nid = self.node_id
        adjacency = channel.adjacency[nid]
        plan = self._beacon_plan
        if plan is None or plan.adjacency is not adjacency:
            plan = self._build_beacon_plan(adjacency)
            if plan is None:
                # Drop the stale plan as well: it pins a superseded dict.
                self._beacon_plan = None
                return False
        rows = plan.rows
        membership = channel.membership
        if plan.membership != membership:
            # Some node died, revived or registered since the plan last
            # passed (rare).  Any liveness or registration change among
            # the planned targets invalidates the plan; in exchange the
            # steady-state ticks never re-derive the target count or
            # re-check row kinds.  The receivers' beacons are checked in
            # the same pass, row by row, so a plan declines, and is
            # dropped, on exactly the ticks it would be if every tick
            # checked it.
            alive = channel._alive
            receivers_get = channel._receivers.get
            for t in plan.dead:
                if t in alive:
                    self._beacon_plan = None
                    return False
            for row in plan.charge:
                t = row.target
                if t not in alive or receivers_get(t) is not None:
                    self._beacon_plan = None
                    return False
            for row in rows:
                t = row.target
                if t not in alive or receivers_get(t) is not row.callback:
                    self._beacon_plan = None
                    return False
                if _beacon_due(row.mac, rx_deadline):
                    # Transient hazard: the plan itself is still valid.
                    return False
            plan.membership = membership
        elif self.sim.next_time() <= rx_deadline:
            # Some event is due inside the propagation window: it may be a
            # receiver's beacon tick.
            for row in rows:
                if _beacon_due(row.mac, rx_deadline):
                    return False

        # Eligible: commit the tick.  Sender-side effects happen at `now`,
        # exactly when _emit_beacon would apply them.
        self.beacons_sent += 1
        stats = channel.stats
        stats.broadcasts += 1
        if channel.metrics.enabled:
            channel.metrics.observe("channel.fanout", plan.targets)
        plan.tx_entry.count += 1
        for row in plan.charge:
            row.rx_entry.count += 1
        for row in rows:
            row.rx_entry.count += 1
            row.neighbors[nid] = 0
        stats.deliveries += len(rows)
        return True

    def _build_beacon_plan(self, adjacency) -> Optional["_BeaconPlan"]:
        """Validate every current receiver and snapshot the delivery plan.

        ``adjacency`` is this node's neighbour dict in the channel's map.
        Returns ``None`` -- before allocating any row -- when some alive
        receiver is not an LMAC stack (so the reference path must run).
        Dead neighbours get a sentinel entry: they cost nothing while
        dead, and their revival invalidates the plan so the rebuilt one can
        validate their fresh state.
        """
        channel = self.channel
        nid = self.node_id
        alive = channel._alive
        receivers = channel._receivers
        lmac_receive = LMACProtocol._on_channel_receive
        for t in adjacency:
            receiver = receivers.get(t) if t in alive else None
            if (
                receiver is not None
                and getattr(receiver, "__func__", None) is not lmac_receive
            ):
                return None
        ledger = channel.ledger
        rx_key = ("rx", MAC_CONTROL_KIND)
        rows = []
        charge = []
        dead = []
        for t in adjacency:
            if t not in alive:
                # No ledger access: the reference path never charges a dead
                # target, so materialising its (zero) rx entry here would
                # perturb the per-kind energy breakdown.
                dead.append(t)
                continue
            row = _BeaconTarget()
            row.target = t
            row.rx_entry = ledger.node(t)._entries[rx_key]
            receiver = receivers.get(t)
            if receiver is None:
                charge.append(row)
                continue
            mac = receiver.__self__
            row.callback = receiver
            row.neighbors = mac.neighbors
            row.mac = mac
            rows.append(row)
        plan = _BeaconPlan()
        plan.adjacency = adjacency
        plan.rows = rows
        plan.charge = charge
        plan.dead = dead
        plan.targets = len(rows) + len(charge)
        plan.tx_entry = ledger.node(nid)._entries[("tx", MAC_CONTROL_KIND)]
        plan.membership = channel.membership
        self._beacon_plan = plan
        return plan

    def _emit_beacon(self) -> None:
        self.beacons_sent += 1
        self.frame_beacons_sent += 1
        # A beacon carries no payload.
        self.channel.send_frame(
            self.node_id,
            BROADCAST,
            None,
            MAC_CONTROL_KIND,
            self.sim.now,
            _TIMER,
        )

    def _check_dead_neighbors(self) -> None:
        """Count a missed beacon period per neighbour; declare the silent dead."""
        neighbors = self.neighbors
        threshold = self.death_threshold
        dead = []
        for neighbor in neighbors:
            missed = neighbors[neighbor] + 1
            neighbors[neighbor] = missed
            if missed >= threshold:
                dead.append(neighbor)
        for neighbor in sorted(dead):
            self._declare_dead(neighbor)

    def _declare_dead(self, neighbor: NodeId) -> None:
        del self.neighbors[neighbor]
        self.sim.tracer.record(
            self.sim.now, "lmac.neighbor_lost", self.node_id, neighbor=neighbor
        )
        if self.on_neighbor_lost is not None:
            self.on_neighbor_lost(neighbor)

    # -- receiving -------------------------------------------------------------------------

    def _on_channel_receive(self, sender: NodeId, payload: Any) -> None:
        # No liveness re-check here: the channel's delivery loop verifies the
        # receiver is alive immediately before invoking this hook, and the
        # alive map cannot change within one delivery event (death happens
        # via runner epochs / scripted events, never inside a receiver).
        # Nor an address check: the channel delivers a unicast to its
        # addressee alone.
        neighbors = self.neighbors
        if sender in neighbors:
            neighbors[sender] = 0
        else:
            self._observe_neighbor(sender)
        if payload is not None and self._upper_handler is not None:
            self._upper_handler(sender, payload)

    def _observe_neighbor(self, sender: NodeId) -> None:
        """First frame from ``sender`` on the frame path: make it a neighbour."""
        self.neighbors[sender] = 0
        self.sim.tracer.record(
            self.sim.now, "lmac.neighbor_found", self.node_id, neighbor=sender
        )
