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

Beacon fast path
----------------
Every beacon tick first tries :meth:`LMACProtocol._try_fast_beacon`: when
the beacon's effects are provably only the steady-state bookkeeping
(lossless channel, tracer off, delivery inside the same runner window,
LMAC receivers whose own beacons do not fire in the propagation window),
it applies the charges and neighbour-table writes directly, with no frame
and no delivery event.  Otherwise the tick sends a frame beacon
(:meth:`LMACProtocol._emit_beacon`), the readable reference that the
differential harness's oracle (``tests/differential/reference.py``)
forces on every tick.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

import numpy as np

from ..network.addresses import BROADCAST, NodeId
from ..network.channel import WirelessChannel
from ..simulation.engine import Simulator
from ..simulation.process import SimProcess
from .frames import MAC_CONTROL_KIND, MACFrame

UpperLayerHandler = Callable[[NodeId, Any], None]
"""Upper-layer receive hook: ``(sender_id, payload) -> None``."""


class _BeaconTarget:
    """One receiver's slice of a cached fast-beacon delivery plan.

    Full rows (``_BeaconPlan.rows``) are LMAC receivers; charge-only rows
    (``_BeaconPlan.charge``) are targets with no registered receiver and
    use only ``target``/``rx_entry``.  Every referenced object is
    identity-stable, so per-tick revalidation is identity and liveness
    checks only.
    """

    __slots__ = ("target", "callback", "neighbors", "timers_get", "rx_entry")


class _BeaconPlan:
    """Cached fast-beacon delivery plan for one sender (see _try_fast_beacon).

    The plan is keyed by the sender's adjacency dict in the channel graph:
    a re-link that leaves the sender's neighbourhood alone shares that dict
    (``Topology.with_positions_delta``), so the plan survives it.
    ``dead`` holds targets that were dead at build time (free while dead;
    revival invalidates the plan), so ``targets`` -- and with it the
    per-beacon transmit cost -- is a plan constant.
    """

    __slots__ = (
        "adjacency",
        "rows",
        "charge",
        "dead",
        "targets",
        "tx_entry",
        "tx_cost",
        "rx_cost",
    )


class LMACProtocol(SimProcess):
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
        super().__init__(sim, name=f"lmac[{node_id}]")
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
        # Plain int counter harvested into obs metrics at trial end --
        # an unconditional increment costs less than any enabled-check here.
        self.beacons_sent = 0
        # Beacons carry no state, so one immutable frame serves them all.
        self._beacon = MACFrame(source=node_id, destination=BROADCAST, payload_bytes=8)
        # Delivery plan of the beacon fast path (see _try_fast_beacon).
        self._beacon_plan: Optional[_BeaconPlan] = None
        self._mac_access_delay = 1e-4
        # Per-kind transmit labels, built once: send() runs for every frame
        # of a 20 000-epoch trial, so the label f-string is hoisted out.
        self._tx_labels: dict[str, str] = {}
        channel.register(node_id, self._on_channel_receive)

    # -- wiring -----------------------------------------------------------------

    def set_upper_handler(self, handler: UpperLayerHandler) -> None:
        """Install the upper-layer (DirQ / flooding) receive hook."""
        self._upper_handler = handler

    # -- lifecycle ----------------------------------------------------------------

    def on_start(self) -> None:
        """Start the periodic beacon timer."""
        # Desynchronise the first beacon slightly per node so that start-up
        # beacons do not all land on the same simulated instant.
        offset = float(self.rng.uniform(0.0, self.beacon_interval * 0.1))
        self.set_timer("beacon", offset + self._mac_access_delay, self._beacon_tick)

    def shutdown(self) -> None:
        """Stop all MAC activity (used when the node dies)."""
        self.cancel_all_timers()

    def wake(self) -> None:
        """(Re)start beaconing, e.g. for a node added after deployment.

        Safe to call on an already-running instance: the beacon timer is
        simply re-armed.
        """
        self.set_timer("beacon", self._mac_access_delay, self._beacon_tick)

    # -- sending ---------------------------------------------------------------------

    def send(
        self,
        destination: NodeId,
        payload: Any,
        kind: str,
        payload_bytes: int = 32,
    ) -> None:
        """Transmit an upper-layer payload after the MAC access delay.

        ``destination`` may be a one-hop neighbour id or
        :data:`~repro.network.addresses.BROADCAST`.
        """
        if not self.channel.is_alive(self.node_id):
            return
        frame = MACFrame(
            source=self.node_id,
            destination=destination,
            payload=payload,
            payload_kind=kind,
            payload_bytes=payload_bytes,
        )

        def transmit() -> None:
            if not self.channel.is_alive(self.node_id):
                return
            if destination == BROADCAST:
                self.channel.broadcast(self.node_id, frame, kind, payload_bytes)
            else:
                self.channel.unicast(self.node_id, destination, frame, kind, payload_bytes)

        # Waiting for the owned slot is modelled as a small constant latency.
        label = self._tx_labels.get(kind)
        if label is None:
            label = self._tx_labels[kind] = f"{self.name}.tx[{kind}]"
        self.sim.schedule_after(self._mac_access_delay, transmit, label=label)

    def broadcast(self, payload: Any, kind: str, payload_bytes: int = 32) -> None:
        """Convenience wrapper for a one-hop broadcast."""
        self.send(BROADCAST, payload, kind, payload_bytes)

    # -- beaconing and neighbourhood maintenance ----------------------------------------

    def _beacon_tick(self) -> None:
        if not self.channel.is_alive(self.node_id):
            return
        if not self._try_fast_beacon():
            self._emit_beacon()
        self._check_dead_neighbors()
        self.set_timer("beacon", self.beacon_interval, self._beacon_tick)

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
          same runner processing window as ``now`` (the runner reads the
          ledger at the epoch's 0.5 / 0.95 / boundary checkpoints, so a
          reception charge must not migrate across one);
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
        (see :class:`_BeaconTarget`), keyed by this node's adjacency dict
        in the channel graph (no graph is mutated in place, so the dict's
        identity pins its contents): every object a row holds -- the
        receiver's bound method, its neighbour dict, its timer map, its
        ledger entry -- is identity stable, so each tick only revalidates
        identities and liveness instead of rebuilding the delivery list.
        """
        channel = self.channel
        if channel.loss_probability > 0.0 or channel.tracer.enabled:
            return False
        now = self.sim.clock.now
        prop = channel.propagation_delay
        frac = now - int(now)
        rx_frac = frac + prop
        if (
            (frac < 0.5 and rx_frac >= 0.5)
            or (frac < 0.95 and rx_frac >= 0.95)
            or rx_frac >= 1.0
        ):
            return False
        nid = self.node_id
        adjacency = channel.graph._adj[nid]
        plan = self._beacon_plan
        if plan is None or plan.adjacency is not adjacency:
            plan = self._build_beacon_plan(adjacency)
            if plan is None:
                # Drop the stale plan as well: it pins a superseded dict.
                self._beacon_plan = None
                return False
        alive_get = channel._alive.get
        receivers_get = channel._receivers.get
        rx_deadline = now + prop
        # Any liveness or registration change among the planned targets
        # invalidates the plan (rare); in exchange the steady-state passes
        # below never re-derive the target count or re-check row kinds.
        for t in plan.dead:
            if alive_get(t):
                self._beacon_plan = None
                return False
        for row in plan.charge:
            t = row.target
            if not alive_get(t) or receivers_get(t) is not None:
                self._beacon_plan = None
                return False
        rows = plan.rows
        for row in rows:
            t = row.target
            if not alive_get(t) or receivers_get(t) is not row.callback:
                self._beacon_plan = None
                return False
            handle = row.timers_get("beacon")
            if handle is not None:
                event = handle._event
                if not event.cancelled and event.time <= rx_deadline:
                    # Transient hazard: the plan itself is still valid.
                    return False

        # Eligible: commit the tick.  Sender-side effects happen at `now`,
        # exactly when _emit_beacon would apply them.
        self.beacons_sent += 1
        stats = channel.stats
        stats.broadcasts += 1
        if channel.metrics.enabled:
            channel.metrics.observe("channel.fanout", plan.targets)
        tx_entry = plan.tx_entry
        tx_entry.count += 1
        tx_entry.cost += plan.tx_cost
        rx_cost = plan.rx_cost
        for row in plan.charge:
            rx_entry = row.rx_entry
            rx_entry.count += 1
            rx_entry.cost += rx_cost
        for row in rows:
            rx_entry = row.rx_entry
            rx_entry.count += 1
            rx_entry.cost += rx_cost
            row.neighbors[nid] = 0
        stats.deliveries += len(rows)
        return True

    def _build_beacon_plan(self, adjacency) -> Optional["_BeaconPlan"]:
        """Validate every current receiver and snapshot the delivery plan.

        ``adjacency`` is this node's adjacency dict in the channel graph.
        Returns ``None`` -- before allocating any row -- when some alive
        receiver is not an LMAC stack (so the reference path must run).
        Dead graph neighbours get a sentinel entry: they cost nothing while
        dead, and their revival invalidates the plan so the rebuilt one can
        validate their fresh state.
        """
        channel = self.channel
        nid = self.node_id
        alive = channel._alive
        receivers = channel._receivers
        lmac_receive = LMACProtocol._on_channel_receive
        for t in adjacency:
            receiver = receivers.get(t) if alive.get(t) else None
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
            if not alive.get(t):
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
            row.timers_get = mac._timers.get
            rows.append(row)
        plan = _BeaconPlan()
        plan.adjacency = adjacency
        plan.rows = rows
        plan.charge = charge
        plan.dead = dead
        plan.targets = len(rows) + len(charge)
        plan.tx_entry = ledger.node(nid)._entries[("tx", MAC_CONTROL_KIND)]
        plan.tx_cost = channel.energy_model.transmit_cost(8, plan.targets)
        plan.rx_cost = channel.energy_model.receive_cost(8)
        self._beacon_plan = plan
        return plan

    def _emit_beacon(self) -> None:
        self.beacons_sent += 1
        self.channel.broadcast(self.node_id, self._beacon, MAC_CONTROL_KIND, 8)

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
            self.now, "lmac.neighbor_lost", self.node_id, neighbor=neighbor
        )
        if self.on_neighbor_lost is not None:
            self.on_neighbor_lost(neighbor)

    # -- receiving -------------------------------------------------------------------------

    def _on_channel_receive(self, sender: NodeId, frame: MACFrame) -> None:
        # No liveness re-check here: the channel's delivery loop verifies the
        # receiver is alive immediately before invoking this hook, and the
        # alive map cannot change within one delivery event (death happens
        # via runner epochs / scripted events, never inside a receiver).
        neighbors = self.neighbors
        if sender in neighbors:
            neighbors[sender] = 0
        else:
            self._observe_neighbor(sender)
        if frame.payload is not None:
            destination = frame.destination
            if destination == self.node_id or destination == BROADCAST:
                if self._upper_handler is not None:
                    self._upper_handler(sender, frame.payload)

    def _observe_neighbor(self, sender: NodeId) -> None:
        """First frame from ``sender`` on the frame path: make it a neighbour."""
        self.neighbors[sender] = 0
        self.sim.tracer.record(
            self.sim.clock.now, "lmac.neighbor_found", self.node_id, neighbor=sender
        )
