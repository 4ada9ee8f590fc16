"""Grid-bucket neighbour queries for unit-disk connectivity.

Deriving unit-disk links from all pairs of nodes costs O(n^2) distance
checks per build, which is what makes 5 000-node topologies (and every
mobility re-link at that scale) intractable.  :func:`neighbors_of` uses the
standard fix: every node falls in a square grid cell of side ``radius``, so
a range query only inspects the 3x3 block of cells around its node --
O(k) work for k nodes in the neighbourhood instead of O(n).  One call
answers many queries at once with numpy: the full build asks for every
node's neighbourhood, a mobility re-link for every moved node's.

Determinism contract
--------------------
Connectivity feeds broadcast target order and therefore experiment
fingerprints, so the result is pinned:

* every query returns a **sorted list** of node ids;
* the range check is the inclusive predicate of
  :func:`repro.network.links.within_range`, evaluated as the same numpy
  expression, so :func:`neighbors_of` and the all-pairs test oracle
  (``tests/differential/reference.py``) can never disagree on a boundary
  tie.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

import numpy as np

from .addresses import NodeId
from .links import Position


def neighbors_of(
    positions: Dict[NodeId, Position], nodes: Sequence[NodeId], radius: float
) -> Dict[NodeId, List[NodeId]]:
    """Sorted ids of the other nodes within ``radius`` of each of ``nodes``.

    One vectorised pass over a grid of cells of side ``radius``, each query
    inspecting the 3x3 block around its cell, with the inclusive predicate
    evaluated as ``np.sqrt(dx*dx + dy*dy) <= radius``, which rounds exactly
    like :func:`~repro.network.links.within_range`.  The result therefore
    equals an all-pairs ``within_range`` scan of each of ``nodes`` (which
    must all be keys of ``positions``), and it is keyed in ``nodes``
    order.
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
