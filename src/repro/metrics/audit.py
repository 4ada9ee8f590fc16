"""Query audit: ground truth vs actual delivery bookkeeping.

Accuracy in the paper (§7.1) is defined as *"the proportion of nodes that
are being reached in response to a query to nodes that should be reached"*,
where "should be reached" includes both the true source nodes and the
intermediate forwarding nodes on the tree paths towards them.  Overshoot
(Fig. 7) is the relative excess of reached nodes over that ground-truth set.

The audit records, for every injected query,

* the ground-truth **source set** (nodes whose actual reading satisfies the
  query at injection time),
* the ground-truth **should-receive set** (sources plus forwarding nodes),
* the set of nodes that actually **received** the query under the protocol
  being evaluated, and
* the nodes that **claimed to be sources** (their stored range matched).

Protocol code reports deliveries; the experiment runner registers ground
truth; :mod:`repro.metrics.accuracy` turns the records into the published
metrics.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Set

from ..core.messages import RangeQuery
from ..network.addresses import NodeId


@dataclasses.dataclass
class QueryRecord:
    """Everything known about one injected query."""

    query: RangeQuery
    sources: Set[NodeId] = dataclasses.field(default_factory=set)
    should_receive: Set[NodeId] = dataclasses.field(default_factory=set)
    received: Set[NodeId] = dataclasses.field(default_factory=set)
    source_claims: Set[NodeId] = dataclasses.field(default_factory=set)
    injection_epoch: int = 0
    #: Number of non-root nodes alive at injection time; the denominator the
    #: paper's node-percentage figures (Figs. 5 and 7) are expressed against.
    population: int = 0

    @property
    def query_id(self) -> int:
        return self.query.query_id

    @property
    def num_received(self) -> int:
        return len(self.received)

    @property
    def num_should_receive(self) -> int:
        return len(self.should_receive)

    @property
    def spurious(self) -> Set[NodeId]:
        """Nodes that received the query but should not have."""
        return self.received - self.should_receive

    @property
    def missed(self) -> Set[NodeId]:
        """Nodes that should have received the query but did not."""
        return self.should_receive - self.received


class QueryAudit:
    """Collects :class:`QueryRecord` objects for a whole experiment."""

    def __init__(self) -> None:
        self._records: Dict[int, QueryRecord] = {}

    # -- registration (experiment runner) ------------------------------------

    def register_query(
        self,
        query: RangeQuery,
        sources: Iterable[NodeId],
        should_receive: Iterable[NodeId],
        injection_epoch: Optional[int] = None,
        population: int = 0,
    ) -> QueryRecord:
        """Register a query along with its ground-truth node sets.

        ``population`` is the number of non-root nodes alive at injection
        time, used as the denominator of the paper's node-percentage
        metrics; 0 means "unknown" and metrics fall back to the
        should-receive set size.
        """
        if query.query_id in self._records:
            raise ValueError(f"query id {query.query_id} already registered")
        record = QueryRecord(
            query=query,
            sources=set(sources),
            should_receive=set(should_receive),
            injection_epoch=(
                injection_epoch if injection_epoch is not None else query.epoch
            ),
            population=int(population),
        )
        self._records[query.query_id] = record
        return record

    # -- reporting (protocol code) -----------------------------------------------

    def record_receipt(self, query_id: int, node_id: NodeId) -> None:
        """Record that ``node_id`` received the query (idempotent)."""
        record = self._records.get(query_id)
        if record is not None:
            record.received.add(node_id)

    def record_source_claim(self, query_id: int, node_id: NodeId) -> None:
        """Record that ``node_id`` believed itself a source for the query."""
        record = self._records.get(query_id)
        if record is not None:
            record.source_claims.add(node_id)

    # -- access ------------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, query_id: int) -> bool:
        return query_id in self._records

    def record(self, query_id: int) -> QueryRecord:
        if query_id not in self._records:
            raise KeyError(f"unknown query id {query_id}")
        return self._records[query_id]

    @property
    def records(self) -> List[QueryRecord]:
        """All records ordered by query id."""
        return [self._records[qid] for qid in sorted(self._records)]

    def records_between(self, first_epoch: int, last_epoch: int) -> List[QueryRecord]:
        """Records for queries injected in ``[first_epoch, last_epoch]``."""
        return [
            r
            for r in self.records
            if first_epoch <= r.injection_epoch <= last_epoch
        ]

    def clear(self) -> None:
        self._records.clear()
