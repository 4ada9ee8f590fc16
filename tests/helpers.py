"""Shared test helpers: hand-built miniature worlds.

The experiment runner assembles full 50-node networks; unit and integration
tests often need something much smaller and fully controlled instead.  The
helpers here build a tiny line / star / tree network with a deterministic
dataset so protocol behaviour can be asserted node by node.
"""

from __future__ import annotations

import dataclasses
import pickletools
from typing import Dict, List, Optional, Sequence, Set

import networkx as nx
import numpy as np

from repro.core.config import DirQConfig
from repro.core.dirq_node import DirQNode
from repro.core.dirq_root import DirQRoot
from repro.core.flooding import FloodingNode, FloodingRoot
from repro.energy.ledger import NetworkLedger
from repro.mac.lmac import LMACProtocol
from repro.metrics.audit import QueryAudit
from repro.network.channel import WirelessChannel
from repro.network.node import SensorNode
from repro.network.spanning_tree import SpanningTree, build_bfs_tree
from repro.network.topology import Topology
from repro.sensors.dataset import SensorDataset
from repro.sensors.sensor import Sensor
from repro.simulation.engine import Simulator
from repro.workload.predictor import QueryRatePredictor


#: Pickle opcodes that name a class or call one.
CLASS_OPCODES = frozenset({
    "GLOBAL", "STACK_GLOBAL", "REDUCE", "BUILD", "INST", "OBJ", "NEWOBJ",
    "NEWOBJ_EX", "EXT1", "EXT2", "EXT4",
})


def class_references(blob: bytes) -> Set[str]:
    """The class-naming opcodes of a pickle: empty for plain data."""
    return {op.name for op, _, _ in pickletools.genops(blob)} & CLASS_OPCODES


def line_topology(num_nodes: int, spacing: float = 10.0) -> Topology:
    """A simple path 0 - 1 - 2 - ... with node 0 as the root."""
    graph = nx.Graph()
    positions = {}
    for i in range(num_nodes):
        graph.add_node(i)
        positions[i] = (i * spacing, 0.0)
        if i > 0:
            graph.add_edge(i - 1, i)
    return Topology(graph=graph, positions=positions, comm_range=spacing * 1.2)


def star_topology(num_leaves: int, spacing: float = 10.0) -> Topology:
    """Node 0 at the centre connected to ``num_leaves`` leaves."""
    graph = nx.Graph()
    positions = {0: (0.0, 0.0)}
    graph.add_node(0)
    for i in range(1, num_leaves + 1):
        angle = 2 * np.pi * i / num_leaves
        positions[i] = (spacing * np.cos(angle), spacing * np.sin(angle))
        graph.add_node(i)
        graph.add_edge(0, i)
    return Topology(graph=graph, positions=positions, comm_range=spacing * 1.2)


def constant_dataset(
    node_ids: Sequence[int],
    values: Dict[int, float],
    num_epochs: int = 50,
    sensor_type: str = "temperature",
) -> SensorDataset:
    """Dataset where every node holds a constant reading over time."""
    arr = np.zeros((num_epochs, len(node_ids)))
    for col, nid in enumerate(node_ids):
        arr[:, col] = values.get(nid, 0.0)
    return SensorDataset(node_ids=list(node_ids), readings={sensor_type: arr})


def ramp_dataset(
    node_ids: Sequence[int],
    start: Dict[int, float],
    slope: Dict[int, float],
    num_epochs: int = 50,
    sensor_type: str = "temperature",
) -> SensorDataset:
    """Dataset where each node's reading ramps linearly over epochs."""
    arr = np.zeros((num_epochs, len(node_ids)))
    epochs = np.arange(num_epochs)
    for col, nid in enumerate(node_ids):
        arr[:, col] = start.get(nid, 0.0) + slope.get(nid, 0.0) * epochs
    return SensorDataset(node_ids=list(node_ids), readings={sensor_type: arr})


@dataclasses.dataclass
class MiniWorld:
    """A hand-assembled protocol stack over a small topology."""

    sim: Simulator
    topology: Topology
    channel: WirelessChannel
    ledger: NetworkLedger
    dataset: SensorDataset
    tree: SpanningTree
    nodes: Dict[int, SensorNode]
    macs: Dict[int, LMACProtocol]
    protocols: Dict[int, object]
    audit: QueryAudit
    config: Optional[DirQConfig]

    @property
    def root(self):
        return self.protocols[self.tree.root]

    def run_epoch(self, epoch: int) -> None:
        """Advance one epoch: drain, sample, drain again."""
        self.sim.run_until(float(epoch))
        for nid in sorted(self.protocols):
            if self.nodes[nid].alive:
                self.protocols[nid].on_epoch(epoch)
        self.sim.run_until(epoch + 0.9)

    def run_epochs(self, first: int, last: int) -> None:
        for epoch in range(first, last + 1):
            self.run_epoch(epoch)

    def settle(self, until: float) -> None:
        self.sim.run_until(until)


def build_mini_world(
    topology: Topology,
    dataset: SensorDataset,
    protocol: str = "dirq",
    config: Optional[DirQConfig] = None,
    root_id: int = 0,
    sensor_assignment: Optional[Dict[int, List[str]]] = None,
    start: bool = True,
    loss_probability: float = 0.0,
    seed: int = 0,
) -> MiniWorld:
    """Assemble a miniature DirQ or flooding stack over ``topology``.

    ``sensor_assignment`` maps node id -> list of sensor types to mount;
    every dataset type on every node by default.
    """
    sim = Simulator()
    ledger = NetworkLedger()
    rng = np.random.default_rng(seed)
    channel = WirelessChannel(
        sim,
        topology,
        ledger=ledger,
        loss_probability=loss_probability,
        rng=rng,
    )
    tree = build_bfs_tree(topology, root=root_id)
    audit = QueryAudit()
    cfg = config if config is not None else DirQConfig(epochs_per_hour=100)
    # Percentage thresholds need a full-scale reference for each type.
    for stype in dataset.sensor_types:
        lo, hi = dataset.value_range(stype)
        cfg.full_scale.setdefault(stype, max(hi - lo, 10.0))

    nodes: Dict[int, SensorNode] = {}
    macs: Dict[int, LMACProtocol] = {}
    protocols: Dict[int, object] = {}
    for nid in topology.node_ids:
        node = SensorNode(nid, topology.position(nid), is_root=(nid == root_id))
        types = (
            sensor_assignment.get(nid, [])
            if sensor_assignment is not None
            else dataset.sensor_types
        )
        for stype in types:
            node.attach_sensor(Sensor(nid, stype, dataset))
        nodes[nid] = node
        macs[nid] = LMACProtocol(
            sim,
            channel,
            nid,
            rng=np.random.default_rng(seed * 1000 + nid),
            beacon_interval=5.0,
        )

    for nid in topology.node_ids:
        node, mac = nodes[nid], macs[nid]
        if protocol == "dirq":
            if nid == root_id:
                protocols[nid] = DirQRoot(
                    sim, node, mac, cfg, audit=audit, predictor=QueryRatePredictor()
                )
            else:
                protocols[nid] = DirQNode(sim, node, mac, cfg, audit=audit)
        elif protocol == "flooding":
            if nid == root_id:
                protocols[nid] = FloodingRoot(sim, node, mac, audit=audit)
            else:
                protocols[nid] = FloodingNode(sim, node, mac, audit=audit)
        else:
            raise ValueError(f"unknown protocol {protocol!r}")
        protocols[nid].set_tree_links(
            tree.parent_of(nid) if nid in tree else None,
            tree.children(nid) if nid in tree else [],
        )

    if start:
        for nid in topology.node_ids:
            macs[nid].start()
            protocols[nid].start()

    return MiniWorld(
        sim=sim,
        topology=topology,
        channel=channel,
        ledger=ledger,
        dataset=dataset,
        tree=tree,
        nodes=nodes,
        macs=macs,
        protocols=protocols,
        audit=audit,
        config=cfg,
    )
