"""Structured simulation tracing.

A :class:`Tracer` records interesting simulation occurrences (message sends,
deliveries, protocol decisions, topology changes) as lightweight records.
It is the reproduction's replacement for OMNeT++'s event log: benchmarks run
with tracing disabled, tests and the examples enable it to assert on or
illustrate protocol behaviour.
"""

from __future__ import annotations

import dataclasses
from collections import Counter, deque
from typing import Any, Deque, Dict, List, Optional


@dataclasses.dataclass(frozen=True)
class TraceRecord:
    """One traced occurrence.

    Attributes
    ----------
    time:
        Simulated time of the occurrence.
    category:
        Coarse grouping such as ``"mac.tx"``, ``"dirq.update"``,
        ``"query.deliver"``; used for filtering.
    node:
        Identifier of the node the record concerns, or ``None`` for
        network-wide records.
    detail:
        Free-form payload describing the occurrence.
    """

    time: float
    category: str
    node: Optional[int]
    detail: Dict[str, Any]


class Tracer:
    """Bounded, filterable in-memory trace.

    Parameters
    ----------
    enabled:
        When ``False`` (the default for benchmark runs) every call is a
        near-no-op so tracing never distorts performance measurements.
    max_records:
        Upper bound on retained records; once the window is full, each new
        record drops the oldest (a ring buffer, O(1) per record).  This
        keeps long (20 000 epoch) runs from accumulating unbounded memory.
    categories:
        Optional whitelist; when given, only records whose category is in the
        set are retained.
    """

    def __init__(
        self,
        enabled: bool = True,
        max_records: int = 100_000,
        categories: Optional[set[str]] = None,
    ):
        if max_records <= 0:
            raise ValueError("max_records must be positive")
        self.enabled = enabled
        self.max_records = int(max_records)
        self.categories = set(categories) if categories is not None else None
        self._records: Deque[TraceRecord] = deque(maxlen=self.max_records)
        self._counts: Counter[str] = Counter()
        self._dropped = 0

    def record(
        self,
        time: float,
        category: str,
        node: Optional[int] = None,
        **detail: Any,
    ) -> None:
        """Record one occurrence (no-op when tracing is disabled)."""
        if not self.enabled:
            return
        if self.categories is not None and category not in self.categories:
            return
        self._counts[category] += 1
        if len(self._records) == self.max_records:
            self._dropped += 1
        self._records.append(TraceRecord(time, category, node, dict(detail)))

    # -- access -----------------------------------------------------------

    @property
    def records(self) -> List[TraceRecord]:
        """All retained records in insertion (time) order."""
        return list(self._records)

    @property
    def dropped(self) -> int:
        """Number of records discarded because of the retention bound."""
        return self._dropped

    def count(self, category: str) -> int:
        """Total records ever seen for ``category`` (including dropped)."""
        return self._counts[category]

    def clear(self) -> None:
        """Drop all retained records and reset counters."""
        self._records.clear()
        self._counts.clear()
        self._dropped = 0

    def summary(self) -> Dict[str, int]:
        """Mapping of category -> total occurrence count."""
        return dict(self._counts)


NULL_TRACER = Tracer(enabled=False, max_records=1)
"""Shared disabled tracer for components that were not given one."""
