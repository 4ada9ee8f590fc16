"""Network topology: node placement and connectivity.

The paper evaluates a 50-node network (one root) simulated in OMNeT++.  This
module provides the placement/connectivity substrate: a :class:`Topology`
value object (positions + an undirected connectivity graph) and generators
for the deployment styles used by the experiments:

* :func:`random_geometric_topology` -- nodes scattered uniformly in a square
  field, connected when within radio range (unit-disk model).  This is the
  default used to reproduce the paper's 50-node network.
* :func:`grid_topology` -- regular grid placement, useful for controlled
  tests.
* :func:`kary_tree_topology` -- a complete k-ary tree laid out in the plane,
  used to validate the analytical model of §5 against simulation.

Topologies are immutable: node death and post-deployment joins are an
alive set, not a topology edit, and a mobility copy
(:meth:`Topology.with_positions_delta`) shares every unchanged adjacency
dict with its source, so a topology's graph must never be mutated in
place.  Unit-disk connectivity is derived one way, with the grid hash of
:mod:`repro.network.spatial`; ``tests/differential/reference.py`` keeps
the all-pairs derivation as its test oracle.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import networkx as nx
import numpy as np

from .addresses import NodeId
from .spatial import neighbors_of, unit_disk_edges

Position = Tuple[float, float]


@dataclasses.dataclass(frozen=True)
class Topology:
    """Immutable node placement + connectivity.

    Attributes
    ----------
    graph:
        Undirected :class:`networkx.Graph` whose nodes are node ids and whose
        edges are radio links.
    positions:
        Mapping node id -> (x, y) coordinates in metres.
    comm_range:
        The radio range used to derive connectivity (``None`` for synthetic
        topologies like the explicit k-ary tree).
    """

    graph: nx.Graph
    positions: Dict[NodeId, Position]
    comm_range: Optional[float] = None

    # -- basic accessors -----------------------------------------------------

    @property
    def node_ids(self) -> List[NodeId]:
        """Sorted list of node identifiers."""
        return sorted(self.graph.nodes)

    @property
    def num_nodes(self) -> int:
        return self.graph.number_of_nodes()

    @property
    def num_links(self) -> int:
        """Number of undirected radio links (edges)."""
        return self.graph.number_of_edges()

    def neighbors(self, node_id: NodeId) -> List[NodeId]:
        """Sorted one-hop neighbours of ``node_id``."""
        if node_id not in self.graph:
            raise KeyError(f"unknown node {node_id}")
        return sorted(self.graph.neighbors(node_id))

    def degree(self, node_id: NodeId) -> int:
        return self.graph.degree[node_id]

    def has_node(self, node_id: NodeId) -> bool:
        return node_id in self.graph

    def has_link(self, a: NodeId, b: NodeId) -> bool:
        return self.graph.has_edge(a, b)

    def position(self, node_id: NodeId) -> Position:
        return self.positions[node_id]

    def distance(self, a: NodeId, b: NodeId) -> float:
        """Euclidean distance between two nodes' positions."""
        (xa, ya), (xb, yb) = self.positions[a], self.positions[b]
        return math.hypot(xa - xb, ya - yb)

    def is_connected(self) -> bool:
        """Whether the connectivity graph is a single component."""
        if self.num_nodes == 0:
            return True
        return nx.is_connected(self.graph)

    def position_array(self, order: Optional[Sequence[NodeId]] = None) -> np.ndarray:
        """Positions as an ``(n, 2)`` array, in ``order`` (default: sorted ids)."""
        ids = list(order) if order is not None else self.node_ids
        return np.array([self.positions[i] for i in ids], dtype=float)

    # -- topology edits (return copies) ---------------------------------------

    def with_positions(self, updates: Dict[NodeId, Position]) -> "Topology":
        """Copy of this topology with some nodes moved.

        Connectivity is re-derived from the unit-disk rule over the updated
        placement, so this is the substrate of the mobility scenarios: node
        movement changes links, never the node set.  Requires a
        ``comm_range`` (synthetic topologies without one have no rule to
        re-derive links from).  Callers that also need the set of nodes
        whose neighbourhood changed should use :meth:`with_positions_delta`
        instead.
        """
        return self.with_positions_delta(updates)[0]

    def with_positions_delta(
        self, updates: Dict[NodeId, Position]
    ) -> Tuple["Topology", Set[NodeId]]:
        """Move nodes and report which nodes' neighbourhoods changed.

        Returns ``(new topology, dirty)`` where ``dirty`` is the set of
        endpoints of every link added or removed by the move -- exactly the
        nodes whose radio neighbourhood changed.

        Only edges incident to moved nodes are recomputed (one vectorised
        grid pass over the moved set,
        :func:`~repro.network.spatial.neighbors_of`), and the new graph
        shares every unchanged adjacency dict with this one: a node outside
        ``dirty`` keeps its dict object, each dirty node gets a fresh dict
        in ascending id order, and a surviving edge keeps its attribute
        dict.  Beyond the grid pass a re-link costs O(n) pointer copies
        plus O((m + d) k) for m moved and d dirty nodes.  Given the
        ascending adjacency layout every full build here produces, the
        graph is byte-identical to a full rebuild.  Sharing is safe because a
        topology's graph is never mutated in place.
        """
        if not updates:
            return self, set()
        if self.comm_range is None:
            raise ValueError(
                "with_positions requires a comm_range to re-derive links"
            )
        unknown = [nid for nid in updates if nid not in self.graph]
        if unknown:
            raise KeyError(f"unknown nodes {sorted(unknown)}")
        positions = dict(self.positions)
        for nid, (x, y) in updates.items():
            positions[nid] = (float(x), float(y))

        # Spatial delta: edges between two unmoved nodes cannot have changed,
        # so diff only the moved nodes' neighbourhoods.  ``added`` maps each
        # endpoint of a new edge to {other end: attribute dict}, one dict
        # per edge stored under both ends as ``nx.Graph.add_edge`` does;
        # ``removed`` maps each endpoint of a lost edge to the other ends.
        # An edge between two moved nodes is met from both ends, so each
        # loop skips the edges the other end already recorded.
        old_adj = self.graph._adj
        added: Dict[NodeId, Dict[NodeId, Dict]] = {}
        removed: Dict[NodeId, List[NodeId]] = {}
        fresh_of = neighbors_of(positions, sorted(updates), self.comm_range)
        for nid, fresh in fresh_of.items():
            before = old_adj[nid]
            new_here = added.get(nid, {})
            for other in fresh:
                if other not in before and other not in new_here:
                    shared: Dict = {}
                    added.setdefault(nid, {})[other] = shared
                    added.setdefault(other, {})[nid] = shared
            fresh_set = set(fresh)
            gone_here = removed.get(nid, ())
            for other in before:
                if other not in fresh_set and other not in gone_here:
                    removed.setdefault(nid, []).append(other)
                    removed.setdefault(other, []).append(nid)
        dirty = set(added)
        dirty.update(removed)
        if not dirty:
            graph = self.graph
        else:
            adj = dict(old_adj)
            for nid in sorted(dirty):
                before = old_adj[nid]
                new_here = added.get(nid, {})
                gone_here = removed.get(nid, ())
                order = [b for b in before if b not in gone_here]
                order.extend(new_here)
                order.sort()
                adj[nid] = {
                    b: new_here[b] if b in new_here else before[b] for b in order
                }
            graph = nx.Graph()
            # networkx's setters reset the cached adj/edges/degree/nodes views.
            graph._adj = adj
            graph._node = dict(self.graph._node)
        return (
            Topology(graph=graph, positions=positions, comm_range=self.comm_range),
            dirty,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Topology(nodes={self.num_nodes}, links={self.num_links}, "
            f"range={self.comm_range})"
        )


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def _graph_from_lex_edges(
    positions: Dict[NodeId, Position],
    edges: Iterable[Tuple[NodeId, NodeId]],
) -> nx.Graph:
    """Assemble a graph from lexicographically sorted ``(low, high)`` edges.

    Produces the exact structure ``add_edges_from(edges)`` would on a graph
    seeded with ``add_nodes_from(positions)``: inserting lex-sorted pairs
    gives every node its neighbours in ascending id order, the adjacency
    layout the broadcast fan-out (and therefore experiment fingerprints)
    is pinned to.  The adjacency dicts are filled directly -- one shared
    attribute dict per edge, stored under both endpoints, exactly as
    ``nx.Graph.add_edge`` does -- because networkx's per-edge bookkeeping
    dominates a full build at scale; the bit-level equivalence with the
    public API is pinned by the spatial equivalence tests.
    """
    g = nx.Graph()
    g.add_nodes_from(positions)
    adj = g._adj
    for a, b in edges:
        shared: Dict = {}
        adj[a][b] = shared
        adj[b][a] = shared
    return g


def _unit_disk_graph(
    positions: Dict[NodeId, Position], comm_range: float
) -> nx.Graph:
    """Build the unit-disk connectivity graph for the given positions.

    The grid hash finds the edges with the inclusive
    :func:`~repro.network.links.within_range` predicate, and they are
    inserted in lexicographic order, which pins the adjacency layout that
    broadcast fan-out -- and therefore experiment fingerprints -- depend on.
    """
    return _graph_from_lex_edges(positions, unit_disk_edges(positions, comm_range))


def random_geometric_topology(
    num_nodes: int,
    comm_range: float,
    area_size: float = 100.0,
    rng: Optional[np.random.Generator] = None,
    ensure_connected: bool = True,
    root_id: NodeId = 0,
    root_position: Optional[Position] = None,
    max_attempts: int = 200,
) -> Topology:
    """Scatter nodes uniformly in a square field with unit-disk connectivity.

    Parameters
    ----------
    num_nodes:
        Total number of nodes including the root.
    comm_range:
        Radio range in the same units as ``area_size``.
    area_size:
        Side length of the square deployment field.
    rng:
        Random generator; a fresh default generator is used when omitted
        (pass one for reproducibility).
    ensure_connected:
        Re-draw placements until the topology is connected (the paper's
        network is connected by construction).
    root_id:
        Identifier of the root/sink node.
    root_position:
        Fixed position for the root (defaults to the field centre), which
        mimics a sink placed deliberately by the deployment team.
    max_attempts:
        Safety bound on connectivity re-draws.

    Raises
    ------
    RuntimeError
        If a connected deployment cannot be found within ``max_attempts``.
    """
    if num_nodes < 1:
        raise ValueError("num_nodes must be >= 1")
    if comm_range <= 0:
        raise ValueError("comm_range must be positive")
    if rng is None:
        # Unseeded by design: interactive convenience only.  Managed runs
        # always pass the "topology" stream (see docstring above).
        rng = np.random.default_rng()  # reprolint: disable=RL104

    root_pos: Position = (
        (area_size / 2.0, area_size / 2.0) if root_position is None else root_position
    )

    for _ in range(max_attempts):
        positions: Dict[NodeId, Position] = {}
        other_ids = [i for i in range(num_nodes) if i != root_id]
        coords = rng.uniform(0.0, area_size, size=(len(other_ids), 2))
        positions[root_id] = (float(root_pos[0]), float(root_pos[1]))
        for idx, nid in enumerate(other_ids):
            positions[nid] = (float(coords[idx, 0]), float(coords[idx, 1]))
        graph = _unit_disk_graph(positions, comm_range)
        topo = Topology(graph=graph, positions=positions, comm_range=comm_range)
        if not ensure_connected or topo.is_connected():
            return topo
    raise RuntimeError(
        f"could not generate a connected topology with n={num_nodes}, "
        f"range={comm_range}, area={area_size} after {max_attempts} attempts; "
        "increase comm_range or decrease area_size"
    )


def grid_topology(
    rows: int,
    cols: int,
    spacing: float = 10.0,
    comm_range: Optional[float] = None,
    root_id: NodeId = 0,
) -> Topology:
    """Regular ``rows x cols`` grid.

    By default the radio range is 1.1x the grid spacing, so each node hears
    its 4-neighbourhood but not its diagonal neighbours (at ``spacing *
    sqrt(2)``); pass a ``comm_range`` of at least ``spacing * sqrt(2)`` to
    include the diagonals.
    """
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")
    if comm_range is None:
        comm_range = spacing * 1.1
    positions: Dict[NodeId, Position] = {}
    nid = 0
    for r in range(rows):
        for c in range(cols):
            positions[nid] = (c * spacing, r * spacing)
            nid += 1
    graph = _unit_disk_graph(positions, comm_range)
    topo = Topology(graph=graph, positions=positions, comm_range=comm_range)
    if root_id not in positions:
        raise ValueError(f"root_id {root_id} outside grid of {rows * cols} nodes")
    return topo


def kary_tree_topology(
    branching: int,
    depth: int,
    spacing: float = 10.0,
) -> Topology:
    """A complete k-ary tree of the given depth, laid out level by level.

    Used to validate the §5 analytical model: the connectivity graph *is*
    the tree (no shortcut links), so simulated flooding / dissemination costs
    can be compared with the closed-form expressions exactly.

    ``depth`` follows the paper's convention: a tree of depth ``d`` has
    ``d + 1`` levels (the root is at depth 0) and ``(k^(d+1) - 1) / (k - 1)``
    nodes for ``k > 1``.
    """
    if branching < 1:
        raise ValueError("branching factor must be >= 1")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    graph = nx.Graph()
    positions: Dict[NodeId, Position] = {}
    graph.add_node(0)
    positions[0] = (0.0, 0.0)
    next_id = 1
    frontier = [0]
    for level in range(1, depth + 1):
        new_frontier: List[NodeId] = []
        for parent in frontier:
            for _ in range(branching):
                child = next_id
                next_id += 1
                graph.add_node(child)
                graph.add_edge(parent, child)
                new_frontier.append(child)
        # Spread the level horizontally for a readable layout.
        width = max(len(new_frontier) - 1, 1)
        for idx, child in enumerate(new_frontier):
            x = (idx - width / 2.0) * spacing
            positions[child] = (x, -level * spacing)
        frontier = new_frontier
    return Topology(graph=graph, positions=positions, comm_range=None)
