"""Wireless network substrate: placement, connectivity, channel, tree."""

from .addresses import BROADCAST, NodeId, validate_node_id
from .channel import ChannelStats, WirelessChannel
from .node import SensorNode
from .spanning_tree import SpanningTree, TreeError, build_bfs_tree
from .topology import (
    Topology,
    grid_topology,
    kary_tree_topology,
    random_geometric_topology,
)

__all__ = [
    "BROADCAST",
    "NodeId",
    "validate_node_id",
    "ChannelStats",
    "WirelessChannel",
    "SensorNode",
    "SpanningTree",
    "TreeError",
    "build_bfs_tree",
    "Topology",
    "grid_topology",
    "kary_tree_topology",
    "random_geometric_topology",
]
