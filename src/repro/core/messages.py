"""DirQ protocol messages.

The paper's protocol exchanges three kinds of application-layer messages
(data extraction is outside its scope, so there are no responses):

* **Range queries** (:class:`RangeQuery`) -- one-shot queries such as
  *"acquire all temperature readings currently between 22 °C and 25 °C"*,
  injected at the root and directed down the tree (§3, §4).
* **Update messages** (:class:`UpdateMessage`) -- the ``(min(TH_min),
  max(TH_max))`` tuples a node sends to its parent when its Range Table's
  aggregate changes by more than the threshold δ (§4.1, Fig. 3).
* **Estimate messages** (:class:`EstimateMessage`, "EHr") -- the root's
  hourly broadcast of the number of queries expected over the next hour,
  which the Adaptive Threshold Control mechanism conditions on (§4, §6).

The module also defines the ledger *kind* strings used to attribute channel
costs to traffic classes (§5's cost breakdown).
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

from ..network.addresses import NodeId

# Ledger kinds (see repro.energy.ledger / repro.metrics.cost).
QUERY_KIND = "query"
UPDATE_KIND = "update"
ESTIMATE_KIND = "estimate"
FLOOD_KIND = "flood"

#: Kinds that make up the paper's DirQ cost function C_TD = C_QD + C_UD
#: (§5.2).  Estimate traffic is included as part of the update mechanism's
#: overhead.
DIRQ_COST_KINDS = (QUERY_KIND, UPDATE_KIND, ESTIMATE_KIND)


@dataclasses.dataclass(frozen=True)
class RangeQuery:
    """A one-shot range query over a single sensor type.

    Attributes
    ----------
    query_id:
        Unique identifier assigned by the root at injection time.
    sensor_type:
        The attribute being queried (e.g. ``"temperature"``).
    low, high:
        Inclusive value bounds; a node whose current reading lies within
        ``[low, high]`` is a *source node* for this query.
    epoch:
        Epoch at which the query was injected (used for ground-truth
        evaluation and for bookkeeping; not consulted for routing).
    """

    query_id: int
    sensor_type: str
    low: float
    high: float
    epoch: int = 0

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise ValueError(
                f"query {self.query_id}: low ({self.low}) exceeds high ({self.high})"
            )
        if not self.sensor_type:
            raise ValueError("sensor_type must be non-empty")

    @property
    def bounds(self) -> Tuple[float, float]:
        return (self.low, self.high)

    def matches(self, value: float) -> bool:
        """Whether a reading satisfies the query."""
        return self.low <= value <= self.high

    def overlaps(self, min_value: float, max_value: float) -> bool:
        """Whether the query interval intersects ``[min_value, max_value]``.

        This is the routing predicate: a query is forwarded towards a
        subtree exactly when its interval overlaps the subtree's advertised
        ``[min(TH_min), max(TH_max)]`` range.
        """
        return self.low <= max_value and min_value <= self.high


@dataclasses.dataclass(frozen=True)
class UpdateMessage:
    """Range update sent from a node to its parent (§4.1, Fig. 3).

    Carries the sender's aggregated ``(min(TH_min), max(TH_max))`` for one
    sensor type.  ``removed`` marks the withdrawal of a sensor type (the
    sender's subtree no longer contains any sensor of this type), which the
    parent uses to delete the corresponding child entry.
    """

    sender: NodeId
    sensor_type: str
    min_threshold: float
    max_threshold: float
    epoch: int = 0
    removed: bool = False

    def __post_init__(self) -> None:
        if not self.removed and self.min_threshold > self.max_threshold:
            raise ValueError(
                f"update from {self.sender}: min_threshold exceeds max_threshold"
            )


@dataclasses.dataclass(frozen=True)
class EstimateMessage:
    """The root's hourly EHr broadcast (§4, §6).

    Attributes
    ----------
    expected_queries:
        Number of queries the root's predictor expects over the next hour.
    hour_index:
        Sequence number of the hour the estimate covers.
    network_size:
        The root's current estimate of the number of alive nodes; used by
        each node to derive its share of the network-wide update budget.
    node_update_budget:
        Per-node update budget (messages per hour) derived by the root's
        Adaptive Threshold Control from ``expected_queries`` and the cost
        model; ``None`` when fixed thresholds are in use.
    epoch:
        Epoch at which the estimate was issued.
    """

    expected_queries: float
    hour_index: int
    network_size: int = 0
    node_update_budget: Optional[float] = None
    epoch: int = 0

    def __post_init__(self) -> None:
        if self.expected_queries < 0:
            raise ValueError("expected_queries must be non-negative")
        if self.node_update_budget is not None and self.node_update_budget < 0:
            raise ValueError("node_update_budget must be non-negative")
