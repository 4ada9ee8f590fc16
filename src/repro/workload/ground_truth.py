"""Ground-truth evaluation of range queries.

Given the true sensor dataset, the spanning tree, and a query, this module
computes the sets the accuracy metrics are defined against (paper §7.1):

* the **source nodes** -- nodes whose actual reading at the injection epoch
  satisfies the query, restricted to nodes that carry the queried sensor
  type;
* the **relevant / should-receive nodes** -- the sources plus every
  intermediate node on the tree paths from the root to the sources (the
  paper's "percentage of nodes involved in responding to a query" includes
  the forwarders, §7.1).

The root is excluded from the should-receive set: the query originates
there, so "reaching" it is not a dissemination outcome.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set

from ..core.messages import RangeQuery
from ..network.addresses import NodeId
from ..network.spanning_tree import SpanningTree
from ..sensors.dataset import SensorDataset


def source_nodes(
    dataset: SensorDataset,
    query: RangeQuery,
    epoch: int,
    sensor_owners: Optional[Dict[str, Set[NodeId]]] = None,
    alive: Optional[Iterable[NodeId]] = None,
) -> Set[NodeId]:
    """True source nodes for ``query`` at ``epoch``.

    Parameters
    ----------
    dataset:
        Ground-truth readings.
    query:
        The range query.
    epoch:
        Epoch at which the query is evaluated (normally the injection epoch).
    sensor_owners:
        Mapping sensor type -> node ids that physically carry that sensor.
        When omitted every node in the dataset is assumed to carry the type
        (the paper's homogeneous default).
    alive:
        Restrict sources to this set of currently alive nodes, if given.
    """
    matches = set(dataset.matching_nodes(query.sensor_type, epoch, query.low, query.high))
    if sensor_owners is not None:
        owners = sensor_owners.get(query.sensor_type, set())
        matches &= set(owners)
    if alive is not None:
        matches &= set(alive)
    return matches


def relevant_nodes(
    tree: SpanningTree,
    sources: Iterable[NodeId],
    include_root: bool = False,
) -> Set[NodeId]:
    """Sources plus forwarding nodes on the root-to-source tree paths."""
    sources = [s for s in sources if s in tree]
    involved = tree.forwarding_set(sources)
    if not include_root:
        involved.discard(tree.root)
    return involved


def evaluate_query(
    dataset: SensorDataset,
    tree: SpanningTree,
    query: RangeQuery,
    epoch: int,
    sensor_owners: Optional[Dict[str, Set[NodeId]]] = None,
    alive: Optional[Iterable[NodeId]] = None,
) -> tuple[Set[NodeId], Set[NodeId]]:
    """Return ``(sources, should_receive)`` for one query.

    ``should_receive`` is what the paper calls the relevant nodes: sources
    plus intermediate forwarders, root excluded.
    """
    sources = source_nodes(dataset, query, epoch, sensor_owners, alive)
    should = relevant_nodes(tree, sources, include_root=False)
    return sources, should
