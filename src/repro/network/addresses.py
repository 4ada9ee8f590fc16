"""Node addressing primitives.

Nodes are identified by small non-negative integers.  The root/sink of the
network is conventionally node 0 (configurable in the experiment configs).
``BROADCAST`` is the destination used for one-hop MAC broadcasts: LMAC
beacons and the flooding baseline.
"""

from __future__ import annotations

NodeId = int
"""Type alias for node identifiers."""

BROADCAST: NodeId = -1
"""Pseudo-address meaning "all one-hop neighbours"."""


def validate_node_id(node_id: NodeId, *, allow_broadcast: bool = False) -> NodeId:
    """Validate a node identifier.

    Parameters
    ----------
    node_id:
        Candidate identifier.
    allow_broadcast:
        Whether the :data:`BROADCAST` sentinel is acceptable.

    Returns
    -------
    NodeId
        The validated identifier (unchanged).

    Raises
    ------
    TypeError
        If the identifier is not an integer.
    ValueError
        If the identifier is negative (and not the allowed broadcast
        sentinel).
    """
    if isinstance(node_id, bool) or not isinstance(node_id, int):
        raise TypeError(f"node id must be an int, got {type(node_id).__name__}")
    if node_id == BROADCAST:
        if allow_broadcast:
            return node_id
        raise ValueError("broadcast address not allowed here")
    if node_id < 0:
        raise ValueError(f"node id must be non-negative, got {node_id}")
    return node_id
