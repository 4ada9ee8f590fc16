"""Grid-bucket spatial hash for O(k) unit-disk neighbour queries.

Deriving unit-disk links from all pairs of nodes costs O(n^2) distance
checks per rebuild, which is what makes 5 000-node topologies (and every
mobility re-link at that scale) intractable.  This module provides the
standard fix: hash every node into a square grid cell of side
``cell_size`` (the radio range, by default), so a range query only inspects
the 3x3 block of cells around the query point -- O(k) work for k nodes in
the neighbourhood instead of O(n).

Determinism contract
--------------------
The hash is used by connectivity construction, which feeds broadcast target
order and therefore experiment fingerprints, so every iteration order here
is pinned:

* buckets are **drained in sorted cell order** and members of a bucket are
  visited in sorted id order (``reprolint`` RL110 enforces this for the
  ``Dict[cell, Set[node]]`` bucket structure);
* every query returns a **sorted list** of node ids;
* the range check is the shared inclusive predicate
  :func:`repro.network.links.within_range`, which the all-pairs test
  oracle (``tests/differential/reference.py``) uses too, so the two can
  never disagree on a boundary tie.

:func:`neighbors_of` answers many queries at once with numpy over the same
grid (the mobility re-link asks for every moved node's neighbourhood); it
returns exactly what :meth:`SpatialHash.neighbors_within` returns for each
queried node.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from .addresses import NodeId
from .links import Position, within_range

Cell = Tuple[int, int]


class SpatialHash:
    """Mutable grid-bucket index over node positions.

    Parameters
    ----------
    positions:
        Initial ``node id -> (x, y)`` placement (may be empty).
    cell_size:
        Side length of a grid cell.  Queries with ``radius <= cell_size``
        inspect at most the 3x3 block around the query cell; larger radii
        widen the block accordingly, so any positive cell size is correct
        -- ``comm_range`` is simply the efficient choice for unit-disk
        neighbourhoods.
    """

    def __init__(
        self,
        positions: Optional[Dict[NodeId, Position]] = None,
        cell_size: float = 1.0,
    ):
        if cell_size <= 0 or not math.isfinite(cell_size):
            raise ValueError("cell_size must be positive and finite")
        self.cell_size = float(cell_size)
        self._buckets: Dict[Cell, Set[NodeId]] = {}
        self._cell_of: Dict[NodeId, Cell] = {}
        self._positions: Dict[NodeId, Position] = {}
        if positions:
            # Fused bulk insert: same result as insert() per node (ids are
            # unique dict keys, so the duplicate check is vacuous), without
            # the per-call overhead -- this constructor runs once per
            # mobility re-link on the scaling hot path.
            size = self.cell_size
            buckets = self._buckets
            cell_of = self._cell_of
            index = self._positions
            for nid in sorted(positions):
                x, y = positions[nid]
                pos = (float(x), float(y))
                cell = (
                    int(math.floor(pos[0] / size)),
                    int(math.floor(pos[1] / size)),
                )
                members = buckets.get(cell)
                if members is None:
                    buckets[cell] = {nid}
                else:
                    members.add(nid)
                cell_of[nid] = cell
                index[nid] = pos

    # -- mutation ------------------------------------------------------------

    def insert(self, node_id: NodeId, position: Position) -> None:
        """Add a node (raises if it is already indexed)."""
        if node_id in self._cell_of:
            raise ValueError(f"node {node_id} already indexed")
        pos = (float(position[0]), float(position[1]))
        cell = self.cell_for(pos)
        self._buckets.setdefault(cell, set()).add(node_id)
        self._cell_of[node_id] = cell
        self._positions[node_id] = pos

    # -- structure -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._cell_of)

    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self._cell_of

    def position(self, node_id: NodeId) -> Position:
        return self._positions[node_id]

    def cell_for(self, position: Position) -> Cell:
        """Grid cell containing ``position`` (floor division per axis)."""
        return (
            int(math.floor(float(position[0]) / self.cell_size)),
            int(math.floor(float(position[1]) / self.cell_size)),
        )

    def cells(self) -> List[Cell]:
        """Occupied cells, sorted (the canonical drain order)."""
        return sorted(self._buckets)

    def bucket(self, cell: Cell) -> List[NodeId]:
        """Sorted members of one cell (empty list for vacant cells)."""
        members = self._buckets.get(cell)
        return sorted(members) if members else []

    def items(self) -> Iterator[Tuple[Cell, List[NodeId]]]:
        """Iterate ``(cell, sorted members)`` in sorted cell order."""
        for cell in sorted(self._buckets):
            yield cell, sorted(self._buckets[cell])

    # -- queries -------------------------------------------------------------

    def query(
        self,
        position: Position,
        radius: float,
        exclude: Optional[NodeId] = None,
    ) -> List[NodeId]:
        """Sorted ids of indexed nodes within ``radius`` of ``position``.

        The range check is inclusive (:func:`~repro.network.links.
        within_range`); ``exclude`` drops one id from the result (the
        querying node itself, typically).
        """
        if radius < 0 or not math.isfinite(radius):
            raise ValueError("radius must be non-negative and finite")
        pos = (float(position[0]), float(position[1]))
        reach = int(math.ceil(radius / self.cell_size)) if radius > 0 else 0
        cx, cy = self.cell_for(pos)
        out: List[NodeId] = []
        buckets = self._buckets
        for gx in range(cx - reach, cx + reach + 1):
            for gy in range(cy - reach, cy + reach + 1):
                members = buckets.get((gx, gy))
                if not members:
                    continue
                for nid in sorted(members):
                    if nid == exclude:
                        continue
                    if within_range(pos, self._positions[nid], radius):
                        out.append(nid)
        out.sort()
        return out

    def neighbors_within(self, node_id: NodeId, radius: float) -> List[NodeId]:
        """Sorted ids of other nodes within ``radius`` of ``node_id``."""
        pos = self._positions.get(node_id)
        if pos is None:
            raise KeyError(f"unknown node {node_id}")
        return self.query(pos, radius, exclude=node_id)


def unit_disk_edges(
    positions: Dict[NodeId, Position], comm_range: float
) -> List[Tuple[NodeId, NodeId]]:
    """All unit-disk edges over ``positions``, sorted lexicographically.

    Each edge is returned once as ``(low id, high id)``.  Inserting edges
    into a fresh graph in exactly this order reproduces the adjacency
    layout of an all-pairs double loop (ascending outer id, ascending
    inner id), which broadcast fan-out order -- and therefore experiment
    fingerprints -- depend on.
    """
    grid = SpatialHash(positions, cell_size=comm_range)
    edges: List[Tuple[NodeId, NodeId]] = []
    for nid in sorted(positions):
        for other in grid.neighbors_within(nid, comm_range):
            if other > nid:
                edges.append((nid, other))
    return edges


def neighbors_of(
    positions: Dict[NodeId, Position], nodes: Sequence[NodeId], radius: float
) -> Dict[NodeId, List[NodeId]]:
    """Sorted ids of the other nodes within ``radius`` of each of ``nodes``.

    One vectorised pass over the grid :class:`SpatialHash` uses -- cells of
    side ``radius``, each query inspecting the 3x3 block around its cell --
    with the inclusive predicate evaluated as ``np.sqrt(dx*dx + dy*dy) <=
    radius``, which rounds exactly like
    :func:`~repro.network.links.within_range`.  The result therefore equals
    ``SpatialHash(positions, radius).neighbors_within(nid, radius)`` for
    every ``nid`` in ``nodes`` (which must all be keys of ``positions``),
    at a fraction of the per-query Python cost.
    """
    if radius <= 0 or not math.isfinite(radius):
        raise ValueError("radius must be positive and finite")
    if not nodes:
        return {}
    ids = sorted(positions)
    id_arr = np.array(ids)
    coords = np.array([positions[nid] for nid in ids], dtype=float)
    xs = coords[:, 0]
    ys = coords[:, 1]
    cx = np.floor(xs / radius).astype(np.int64)
    cy = np.floor(ys / radius).astype(np.int64)
    # Shift both axes so that every cell of every 3x3 block has a unique,
    # non-negative key.
    cx -= cx.min() - 1
    cy -= cy.min() - 1
    width = int(cy.max()) + 2
    key = cx * width + cy
    by_cell = np.argsort(key, kind="stable")
    cell_keys = key[by_cell]
    queried = np.searchsorted(id_arr, nodes)
    step = np.array([-1, 0, 1])
    block = (step[:, None] * width + step).ravel()
    cells = (key[queried][:, None] + block).ravel()
    lo = np.searchsorted(cell_keys, cells, side="left")
    counts = np.searchsorted(cell_keys, cells, side="right") - lo
    ends = np.cumsum(counts)
    # Candidate k of cell c sits at lo[c] + (k - first candidate of c).
    cand = by_cell[np.arange(ends[-1]) + np.repeat(lo - ends + counts, counts)]
    query = np.repeat(np.arange(len(nodes)).repeat(len(block)), counts)
    src = queried[query]
    dx = xs[src] - xs[cand]
    dy = ys[src] - ys[cand]
    hit = (np.sqrt(dx * dx + dy * dy) <= radius) & (cand != src)
    query = query[hit]
    cand = cand[hit]
    # Indices follow sorted ids, so ordering them orders the neighbours.
    flat = id_arr[cand[np.lexsort((cand, query))]].tolist()
    bounds = np.cumsum(np.bincount(query, minlength=len(nodes))).tolist()
    out: Dict[NodeId, List[NodeId]] = {}
    start = 0
    for nid, end in zip(nodes, bounds):
        out[nid] = flat[start:end]
        start = end
    return out
