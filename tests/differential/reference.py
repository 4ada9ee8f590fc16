"""Reference implementations kept as test oracles.

Each mechanism has one production path in ``src/``.  The formulations it
replaced survive here, or are selected from here, where tests compare the
production path against them:

* **Epoch tick and beacons.**  :func:`reference_tick` runs a whole trial
  on the readable references that stay in ``src/``: the per-node
  :meth:`DirQNode.on_epoch` loop (through :class:`PerNodeTick`) instead of
  the columnar tick, and a frame beacon
  (:meth:`LMACProtocol._emit_beacon`) on every beacon tick instead of the
  beacon fast path.
* **Connectivity.**  :func:`all_pairs_graph` checks every pair with the
  shared :func:`~repro.network.links.within_range` predicate and inserts
  the edges through networkx's public API; :func:`full_rebuild_delta`
  re-derives every link after a move instead of only the moved nodes'.
  :func:`brute_network` routes a whole trial through both.
* **Delivery.**  :class:`PerReceiverChannel` schedules one delivery event
  per receiver instead of one per transmission.
* **Config hashing.**  :func:`canonical_walk` reads every dataclass's
  fields and hash attributes per value, where
  :func:`repro.experiments.batch._canonical` reads them once per type.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import Dict, List, Set, Tuple

import networkx as nx

from repro.experiments import runner as runner_module
from repro.mac.lmac import LMACProtocol
from repro.network import topology as topology_module
from repro.network.addresses import NodeId
from repro.network.channel import WirelessChannel
from repro.network.links import Position, within_range
from repro.network.topology import Topology
from repro.simulation.events import EventPriority


class PerNodeTick:
    """The runner's per-node epoch loop, in :class:`ColumnarTick`'s shape.

    Each epoch calls ``on_epoch`` on every protocol of the sorted alive
    list the runner installs; it defers nothing, so ``finalize`` has
    nothing to flush.
    """

    def __init__(self, dataset, dirq_config):
        self._protocols: List = []

    def set_protocols(self, protocols: List) -> None:
        self._protocols = list(protocols)

    def tick(self, epoch: int) -> None:
        for proto in self._protocols:
            proto.on_epoch(epoch)

    def finalize(self) -> None:
        pass


def reference_tick(monkeypatch) -> None:
    """Run every trial on the per-node tick and frame beacons.

    Patches the runner's :class:`ColumnarTick` to :class:`PerNodeTick`
    and makes every :meth:`LMACProtocol._try_fast_beacon` decline, for the
    rest of the test (or ``MonkeyPatch`` context).
    """
    monkeypatch.setattr(runner_module, "ColumnarTick", PerNodeTick)
    monkeypatch.setattr(LMACProtocol, "_try_fast_beacon", lambda mac: False)


def brute_edges(
    positions: Dict[NodeId, Position], comm_range: float
) -> List[Tuple[NodeId, NodeId]]:
    """Every unit-disk edge, found by checking all pairs in ascending order."""
    ids = sorted(positions)
    return [
        (a, b)
        for i, a in enumerate(ids)
        for b in ids[i + 1 :]
        if within_range(positions[a], positions[b], comm_range)
    ]


def all_pairs_graph(positions: Dict[NodeId, Position], comm_range: float) -> nx.Graph:
    """The unit-disk graph the grid hash must reproduce, adjacency order included."""
    graph = nx.Graph()
    graph.add_nodes_from(positions)
    graph.add_edges_from(brute_edges(positions, comm_range))
    return graph


def full_rebuild_delta(
    topology: Topology, updates: Dict[NodeId, Position]
) -> Tuple[Topology, Set[NodeId]]:
    """:meth:`Topology.with_positions_delta` by rebuilding every link.

    ``dirty`` is derived independently: the moved nodes whose neighbour
    set changed, plus every neighbour they gained or lost.
    """
    if not updates:
        return topology, set()
    if topology.comm_range is None:
        raise ValueError("with_positions requires a comm_range to re-derive links")
    positions = dict(topology.positions)
    for nid, (x, y) in updates.items():
        positions[nid] = (float(x), float(y))
    graph = all_pairs_graph(positions, topology.comm_range)
    dirty: Set[NodeId] = set()
    for nid in updates:
        changed = set(topology.graph[nid]) ^ set(graph[nid])
        if changed:
            dirty.add(nid)
            dirty.update(changed)
    return (
        Topology(graph=graph, positions=positions, comm_range=topology.comm_range),
        dirty,
    )


def brute_network(monkeypatch) -> Counter:
    """Build and re-link every topology through the all-pairs oracles.

    Patches the unit-disk graph construction and
    :meth:`Topology.with_positions_delta` for the rest of the test (or
    ``MonkeyPatch`` context), so a whole trial can run a brute arm.
    Returns call counts per oracle, so a caller can check the patch was
    exercised.
    """
    calls: Counter = Counter()

    def graph(positions, comm_range):
        calls["graph"] += 1
        return all_pairs_graph(positions, comm_range)

    def delta(topology, updates):
        calls["delta"] += 1
        return full_rebuild_delta(topology, updates)

    monkeypatch.setattr(topology_module, "_unit_disk_graph", graph)
    monkeypatch.setattr(Topology, "with_positions_delta", delta)
    return calls


class PerReceiverChannel(WirelessChannel):
    """A channel that delivers each reception as its own event.

    Batched delivery must be indistinguishable from this: the same
    receivers in the same order, the same loss draws, and the same ledger.
    """

    def _schedule_delivery(self, sender, targets, frame, kind, payload_bytes):
        rx_cost = self.energy_model.receive_cost(payload_bytes)
        for target in targets:
            self._schedule_one(sender, target, frame, kind, rx_cost)

    def _schedule_one(self, sender, target, frame, kind, rx_cost):
        def deliver() -> None:
            if not self._alive.get(target):
                self.stats.drops_dead_node += 1
                return
            self.ledger.node(target).charge_rx(kind, rx_cost)
            receiver = self._receivers.get(target)
            if receiver is None:
                return
            self.stats.deliveries += 1
            if self.tracer.enabled:
                self.tracer.record(
                    self.sim.now, "channel.rx", target, sender=sender, kind=kind
                )
            receiver(sender, frame)

        self.sim.schedule_after(
            self.propagation_delay,
            deliver,
            priority=EventPriority.MAC,
            label=f"deliver[{kind}] {sender}->{target}",
        )


def canonical_walk(obj: object) -> object:
    """The canonical hash payload of ``obj``, one reflective walk per value."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        omit = getattr(type(obj), "HASH_OMIT_WHEN_UNSET", ())
        exclude = getattr(type(obj), "HASH_EXCLUDE", ())
        payload = {
            f.name: canonical_walk(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if f.name not in exclude
            and not (f.name in omit and getattr(obj, f.name) is None)
        }
        # Deleted fields keep their one value in the payload.
        payload.update(getattr(type(obj), "HASH_RETIRED", ()))
        return payload
    if isinstance(obj, dict):
        return {
            str(k): canonical_walk(v)
            for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(obj, (set, frozenset)):
        return sorted((canonical_walk(v) for v in obj), key=repr)
    if isinstance(obj, (list, tuple)):
        return [canonical_walk(v) for v in obj]
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    return repr(obj)
