"""Network topology: node placement and connectivity.

The paper evaluates a 50-node network (one root) simulated in OMNeT++.  This
module provides the placement/connectivity substrate: a :class:`Topology`
value object (positions + an undirected adjacency map) and generators for
the deployment styles used by the experiments:

* :func:`random_geometric_topology` -- nodes scattered uniformly in a square
  field, connected when within radio range (unit-disk model).  This is the
  default used to reproduce the paper's 50-node network.
* :func:`grid_topology` -- regular grid placement, useful for controlled
  tests.
* :func:`kary_tree_topology` -- a complete k-ary tree laid out in the plane,
  used to validate the analytical model of §5 against simulation.

Every neighbour dict of the adjacency map lists its node's radio
neighbours in ascending id order: broadcast fan-out walks it, so every
fingerprint depends on that order.

Topologies are immutable: node death and post-deployment joins are an
alive set, not a topology edit, and a mobility copy
(:meth:`Topology.with_positions_delta`) shares every unchanged neighbour
dict with its source, so a topology's adjacency must never be mutated in
place.  Unit-disk connectivity is derived one way, with the grid query
:func:`repro.network.spatial.neighbors_of`;
``tests/differential/reference.py`` keeps the all-pairs derivation as its
test oracle.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .addresses import NodeId
from .spatial import neighbors_of

Position = Tuple[float, float]

#: Node id -> {neighbour id: None}, neighbours in ascending id order.
Adjacency = Dict[NodeId, Dict[NodeId, None]]


@dataclasses.dataclass(frozen=True)
class Topology:
    """Immutable node placement + connectivity.

    Attributes
    ----------
    adjacency:
        Node id -> its radio neighbours, as a dict whose keys ascend (the
        values are ``None``): a dict answers "is this a neighbour?" in
        O(1) and iterates in a fixed order.  Links are symmetric.
    positions:
        Mapping node id -> (x, y) coordinates in metres.
    comm_range:
        The radio range used to derive connectivity (``None`` for synthetic
        topologies like the explicit k-ary tree).
    """

    adjacency: Adjacency
    positions: Dict[NodeId, Position]
    comm_range: Optional[float] = None

    # -- basic accessors -----------------------------------------------------

    @property
    def node_ids(self) -> List[NodeId]:
        """Sorted list of node identifiers."""
        return sorted(self.adjacency)

    @property
    def num_nodes(self) -> int:
        return len(self.adjacency)

    @property
    def num_links(self) -> int:
        """Number of undirected radio links (edges)."""
        return sum(map(len, self.adjacency.values())) // 2

    def position(self, node_id: NodeId) -> Position:
        return self.positions[node_id]

    def is_connected(self) -> bool:
        """Whether every node reaches every other (true when empty)."""
        adjacency = self.adjacency
        reached = set()
        frontier = list(adjacency)[:1]
        while frontier:
            node = frontier.pop()
            if node not in reached:
                reached.add(node)
                frontier.extend(adjacency[node])
        return len(reached) == len(adjacency)

    def position_array(self, order: Optional[Sequence[NodeId]] = None) -> np.ndarray:
        """Positions as an ``(n, 2)`` array, in ``order`` (default: sorted ids)."""
        ids = list(order) if order is not None else self.node_ids
        return np.array([self.positions[i] for i in ids], dtype=float)

    # -- topology edits (return copies) ---------------------------------------

    def with_positions_delta(
        self, updates: Dict[NodeId, Position]
    ) -> Tuple["Topology", Set[NodeId]]:
        """Move nodes and report which nodes' neighbourhoods changed.

        Connectivity is re-derived from the unit-disk rule over the updated
        placement, so this is the substrate of the mobility scenarios: node
        movement changes links, never the node set.  Requires a
        ``comm_range`` (synthetic topologies without one have no rule to
        re-derive links from).

        Returns ``(new topology, dirty)`` where ``dirty`` is the set of
        endpoints of every link added or removed by the move -- exactly the
        nodes whose radio neighbourhood changed.

        Only links incident to moved nodes are recomputed (one vectorised
        grid pass over the moved set,
        :func:`~repro.network.spatial.neighbors_of`), and the new
        adjacency map shares every unchanged neighbour dict with this one:
        a node outside ``dirty`` keeps its dict object, and each dirty node
        gets a fresh dict in ascending id order.  Beyond the grid pass a
        re-link costs O(n) pointer copies plus O((m + d) k) for m moved
        and d dirty nodes.  The map equals a full rebuild's, neighbour
        order included.  A move that changes no link keeps this map
        itself.  Sharing is safe because a topology's adjacency is never
        mutated in place.
        """
        if not updates:
            return self, set()
        if self.comm_range is None:
            raise ValueError(
                "with_positions_delta requires a comm_range to re-derive links"
            )
        unknown = [nid for nid in updates if nid not in self.adjacency]
        if unknown:
            raise KeyError(f"unknown nodes {sorted(unknown)}")
        positions = dict(self.positions)
        for nid, (x, y) in updates.items():
            positions[nid] = (float(x), float(y))

        # Spatial delta: links between two unmoved nodes cannot have
        # changed, so diff only the moved nodes' neighbourhoods.  ``added``
        # and ``removed`` map each endpoint of a new or lost link to the
        # other ends.  A link between two moved nodes is met from both
        # ends, so each loop skips the links the other end already
        # recorded.
        old_adj = self.adjacency
        added: Dict[NodeId, List[NodeId]] = {}
        removed: Dict[NodeId, List[NodeId]] = {}
        fresh_of = neighbors_of(positions, sorted(updates), self.comm_range)
        for nid, fresh in fresh_of.items():
            before = old_adj[nid]
            new_here = added.get(nid, ())
            for other in fresh:
                if other not in before and other not in new_here:
                    added.setdefault(nid, []).append(other)
                    added.setdefault(other, []).append(nid)
            fresh_set = set(fresh)
            gone_here = removed.get(nid, ())
            for other in before:
                if other not in fresh_set and other not in gone_here:
                    removed.setdefault(nid, []).append(other)
                    removed.setdefault(other, []).append(nid)
        dirty = set(added)
        dirty.update(removed)
        adjacency = old_adj
        if dirty:
            adjacency = dict(old_adj)
            for nid in sorted(dirty):
                gone_here = removed.get(nid, ())
                order = [b for b in old_adj[nid] if b not in gone_here]
                order.extend(added.get(nid, ()))
                order.sort()
                adjacency[nid] = dict.fromkeys(order)
        return (
            Topology(
                adjacency=adjacency, positions=positions, comm_range=self.comm_range
            ),
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


def _unit_disk_adjacency(
    positions: Dict[NodeId, Position], comm_range: float
) -> Adjacency:
    """The unit-disk adjacency map of ``positions``, keyed in ascending id.

    One :func:`~repro.network.spatial.neighbors_of` query over every node
    finds the links with the inclusive
    :func:`~repro.network.links.within_range` predicate; its lists are
    already sorted, which pins the neighbour order that broadcast
    fan-out -- and therefore experiment fingerprints -- depend on.
    """
    nodes = sorted(positions)
    return {
        nid: dict.fromkeys(found)
        for nid, found in neighbors_of(positions, nodes, comm_range).items()
    }


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
        Identifier of the root/sink node, one of ``range(num_nodes)``.
    root_position:
        Fixed position for the root (defaults to the field centre), which
        mimics a sink placed deliberately by the deployment team.
    max_attempts:
        Safety bound on connectivity re-draws.

    Raises
    ------
    ValueError
        If an argument is out of range, ``root_id`` included.
    RuntimeError
        If a connected deployment cannot be found within ``max_attempts``.
    """
    if num_nodes < 1:
        raise ValueError("num_nodes must be >= 1")
    if comm_range <= 0:
        raise ValueError("comm_range must be positive")
    if not 0 <= root_id < num_nodes:
        raise ValueError(f"root_id {root_id} outside range({num_nodes})")
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
        adjacency = _unit_disk_adjacency(positions, comm_range)
        topo = Topology(adjacency=adjacency, positions=positions, comm_range=comm_range)
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
    adjacency = _unit_disk_adjacency(positions, comm_range)
    topo = Topology(adjacency=adjacency, positions=positions, comm_range=comm_range)
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
    adjacency: Adjacency = {0: {}}
    positions: Dict[NodeId, Position] = {0: (0.0, 0.0)}
    next_id = 1
    frontier = [0]
    for level in range(1, depth + 1):
        new_frontier: List[NodeId] = []
        for parent in frontier:
            for _ in range(branching):
                child = next_id
                next_id += 1
                # Ids grow level by level, so each dict stays ascending:
                # a node's parent comes first, then its children in order.
                adjacency[parent][child] = None
                adjacency[child] = {parent: None}
                new_frontier.append(child)
        # Spread the level horizontally for a readable layout.
        width = max(len(new_frontier) - 1, 1)
        for idx, child in enumerate(new_frontier):
            x = (idx - width / 2.0) * spacing
            positions[child] = (x, -level * spacing)
        frontier = new_frontier
    return Topology(adjacency=adjacency, positions=positions, comm_range=None)
