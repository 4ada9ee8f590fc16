"""Spanning-tree construction and maintenance.

DirQ operates over a communication spanning tree rooted at the sink: range
information flows up the tree, queries flow down it (paper §4).  This module
provides

* :class:`SpanningTree` -- the tree itself (parent/children maps) with the
  traversal helpers the routing layers and the metrics need (path to
  root, depth, forwarding sets);
* :func:`build_bfs_tree` -- centralized breadth-first construction from a
  :class:`~repro.network.topology.Topology` (how the experiment runner sets
  up the initial tree, mirroring the paper's "once the nodes have been
  placed, a spanning tree is set up"), and the one rule that carries the
  tree over kills, revivals and mobility re-links
  (:meth:`SpanningTree.repair`).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Set

from .addresses import NodeId
from .topology import Topology


class TreeError(RuntimeError):
    """Raised for structurally invalid tree operations."""


@dataclasses.dataclass
class SpanningTree:
    """Rooted spanning tree over a set of node identifiers.

    The tree is represented by a parent map (root maps to ``None``); children
    lists are derived and kept sorted for determinism.
    """

    root: NodeId
    parent: Dict[NodeId, Optional[NodeId]]

    def __post_init__(self) -> None:
        if self.root not in self.parent:
            raise TreeError(f"root {self.root} missing from parent map")
        if self.parent[self.root] is not None:
            raise TreeError("root must have no parent")
        self._children: Dict[NodeId, List[NodeId]] = {n: [] for n in self.parent}
        for node, par in self.parent.items():
            if node == self.root:
                continue
            if par is None:
                raise TreeError(f"non-root node {node} has no parent")
            if par not in self.parent:
                raise TreeError(f"node {node} has unknown parent {par}")
            self._children[par].append(node)
        for kids in self._children.values():
            kids.sort()
        self._validate_acyclic()

    def _validate_acyclic(self) -> None:
        # Memoized: a node on an already-validated root chain never needs
        # re-walking, so validation is O(n) total rather than O(n * depth)
        # -- construction cost matters now that large-N mobility re-links
        # build trees with thousands of nodes.
        ok: Set[NodeId] = set()
        for node in self.parent:
            chain: List[NodeId] = []
            on_chain: Set[NodeId] = set()
            cur: Optional[NodeId] = node
            while cur is not None and cur not in ok:
                if cur in on_chain:
                    raise TreeError(f"cycle detected through node {cur}")
                on_chain.add(cur)
                chain.append(cur)
                cur = self.parent[cur]
            if cur is None and chain and chain[-1] != self.root:
                raise TreeError(f"node {node} is not connected to the root")
            ok.update(chain)

    # -- basic structure -------------------------------------------------------

    @property
    def node_ids(self) -> List[NodeId]:
        return sorted(self.parent)

    @property
    def num_nodes(self) -> int:
        return len(self.parent)

    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self.parent

    def children(self, node_id: NodeId) -> List[NodeId]:
        """Immediate (one-hop) children of ``node_id``, sorted."""
        if node_id not in self.parent:
            raise KeyError(f"unknown node {node_id}")
        return list(self._children[node_id])

    def parent_of(self, node_id: NodeId) -> Optional[NodeId]:
        if node_id not in self.parent:
            raise KeyError(f"unknown node {node_id}")
        return self.parent[node_id]

    def is_leaf(self, node_id: NodeId) -> bool:
        return not self._children[node_id]

    @property
    def leaves(self) -> List[NodeId]:
        return sorted(n for n in self.parent if self.is_leaf(n))

    def depth_of(self, node_id: NodeId) -> int:
        """Hop distance from the root (root has depth 0)."""
        depth = 0
        cur = self.parent_of(node_id)
        while cur is not None:
            depth += 1
            cur = self.parent[cur]
        return depth

    @property
    def depth(self) -> int:
        """Maximum node depth (a single-node tree has depth 0)."""
        return max((self.depth_of(n) for n in self.parent), default=0)

    @property
    def max_branching(self) -> int:
        """Maximum number of children of any node."""
        return max((len(kids) for kids in self._children.values()), default=0)

    # -- traversal ---------------------------------------------------------------

    def path_to_root(self, node_id: NodeId) -> List[NodeId]:
        """Nodes on the path from ``node_id`` (inclusive) up to the root."""
        path = [node_id]
        cur = self.parent_of(node_id)
        while cur is not None:
            path.append(cur)
            cur = self.parent[cur]
        return path

    def forwarding_set(self, sources: Iterable[NodeId]) -> Set[NodeId]:
        """All nodes involved in routing a query from the root to ``sources``.

        This is the union of the root-to-source paths, i.e. the sources plus
        every intermediate forwarding node plus the root — the set the paper
        calls the "relevant nodes" when defining accuracy (§7.1).
        """
        involved: Set[NodeId] = set()
        for src in sources:
            involved.update(self.path_to_root(src))
        return involved

    # -- maintenance ----------------------------------------------------------------

    def repair(self, topology: Topology, alive: Set[NodeId]) -> "SpanningTree":
        """This tree carried over to a changed topology or alive set.

        Applies :func:`build_bfs_tree`'s rule with this tree as the
        previous one: every node whose parent is still an alive radio
        neighbour one BFS level up keeps it.  Alive nodes the root can no
        longer reach are left out (they are partitioned).
        """
        if self.root not in alive:
            raise TreeError("cannot repair after root death; the sink is fixed")
        return build_bfs_tree(topology, self.root, alive, partial=True, previous=self)

    def with_new_node(self, node_id: NodeId, attach_to: NodeId) -> "SpanningTree":
        """Copy of the tree with ``node_id`` added as a child of ``attach_to``."""
        if node_id in self.parent:
            raise TreeError(f"node {node_id} already in tree")
        if attach_to not in self.parent:
            raise KeyError(f"unknown attachment point {attach_to}")
        parent = dict(self.parent)
        parent[node_id] = attach_to
        return SpanningTree(root=self.root, parent=parent)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def build_bfs_tree(
    topology: Topology,
    root: NodeId = 0,
    alive: Optional[Set[NodeId]] = None,
    partial: bool = False,
    previous: Optional[SpanningTree] = None,
) -> SpanningTree:
    """Breadth-first spanning tree of ``topology`` rooted at ``root``.

    One rule builds the initial tree and carries it over every later
    change (kills, revivals, mobility re-links):

    * a node's depth is its BFS hop count from the root over the member
      nodes;
    * a node keeps its parent in ``previous`` while that parent is a
      member radio neighbour one level up;
    * otherwise it takes the neighbour one level up whose root path sorts
      first.

    Root paths are compared through ranks: each level is ranked by
    ``(rank of parent, node id)``, so comparing two nodes' ranks compares
    their root paths.  That is the order in which a FIFO breadth-first
    search over sorted neighbour lists dequeues a level, so with
    ``previous=None`` every node gets the parent such a search finds
    first.

    Parameters
    ----------
    alive:
        Restrict the tree to these nodes (the root is always included);
        ``None`` spans the whole topology.
    partial:
        Tolerate unreachable members by leaving them out of the tree
        instead of raising :class:`TreeError` -- what the dynamic
        scenarios need, where a kill or re-link can partition nodes.
    previous:
        The tree before the change; ``None`` builds from scratch.
    """
    adjacency = topology.adjacency
    if root not in adjacency:
        raise KeyError(f"root {root} not in topology")
    members = set(adjacency) if alive is None else set(alive)
    kept = previous.parent if previous is not None else {}
    parent: Dict[NodeId, Optional[NodeId]] = {root: None}
    level = [root]
    while level:
        # ``level`` is in rank order, so the first node of it to reach a
        # newcomer is the newcomer's lowest-rank neighbour one level up.
        rank = {node: i for i, node in enumerate(level)}
        first: Dict[NodeId, NodeId] = {}
        for cur in level:
            for nb in adjacency[cur]:
                if nb in members and nb not in parent and nb not in first:
                    first[nb] = cur
        for node, found in first.items():
            old = kept.get(node)
            sticky = old in rank and old in adjacency[node]
            parent[node] = old if sticky else found
        level = sorted(first, key=lambda node: (rank[parent[node]], node))
    missing = members - set(parent)
    if missing and not partial:
        raise TreeError(
            f"topology is not connected; unreachable nodes: {sorted(missing)}"
        )
    return SpanningTree(root=root, parent=parent)
