"""Accuracy and overshoot metrics (paper §7.1, Figs. 5 and 7).

Definitions, following the paper:

* **Accuracy** -- "the proportion of nodes that are being reached in
  response to a query to nodes that should be reached", where the
  should-be-reached set contains the true source nodes *and* the
  intermediate forwarding nodes.
* **Overshoot** -- the excess of reached nodes over the should-be-reached
  set, expressed in percentage points of the (non-root) node population:
  this is the gap between the "nodes that RECEIVE a query" and "nodes that
  SHOULD receive a query" curves of Fig. 5, which is the scale Fig. 7 plots
  (0-10 %) and against which the paper reports an average of ≈3.6 % for the
  ATC.  The relative excess (reached/should - 1) is also exposed as
  ``relative_overshoot_percent`` for users who prefer that normalisation.
* The Fig. 5 bar groups -- percentage of nodes that SHOULD receive the
  query, that actually RECEIVE it, that are true sources, and that should
  NOT receive it -- are reproduced by :func:`fig5_percentages`.

All functions operate on :class:`~repro.metrics.audit.QueryRecord` objects.
"""

from __future__ import annotations

import dataclasses
from statistics import mean
from typing import Iterable, List, Sequence

from .audit import QueryRecord


@dataclasses.dataclass(frozen=True)
class QueryAccuracy:
    """Accuracy figures for a single query."""

    query_id: int
    num_sources: int
    num_should_receive: int
    num_received: int
    num_spurious: int
    num_missed: int
    accuracy: float
    overshoot_percent: float
    relative_overshoot_percent: float


def query_accuracy(record: QueryRecord) -> QueryAccuracy:
    """Per-query accuracy and overshoot.

    ``accuracy`` is the reached/should ratio (above 1 when more nodes than
    necessary were reached).  ``overshoot_percent`` is the paper-style
    metric: (received - should) as a percentage of the node population
    recorded with the query (falling back to the should-receive count when
    the population is unknown).  ``relative_overshoot_percent`` is the
    excess relative to the should-receive set; both are signed, so an
    under-delivery produces negative values.
    """
    should = record.num_should_receive
    received = record.num_received
    population = record.population if record.population > 0 else should
    if should == 0:
        relative = 100.0 * float(received)
        accuracy = 1.0 if received == 0 else 0.0
    else:
        relative = 100.0 * (received - should) / should
        accuracy = received / should
    if population > 0:
        overshoot = 100.0 * (received - should) / population
    else:
        overshoot = 0.0
    return QueryAccuracy(
        query_id=record.query_id,
        num_sources=len(record.sources),
        num_should_receive=should,
        num_received=received,
        num_spurious=len(record.spurious),
        num_missed=len(record.missed),
        accuracy=accuracy,
        overshoot_percent=overshoot,
        relative_overshoot_percent=relative,
    )


def mean_overshoot(records: Iterable[QueryRecord]) -> float:
    """Average overshoot (percent) over a set of queries (0.0 if empty)."""
    values = [query_accuracy(r).overshoot_percent for r in records]
    return float(mean(values)) if values else 0.0


def mean_accuracy(records: Iterable[QueryRecord]) -> float:
    """Average reached/should ratio over a set of queries (1.0 if empty)."""
    values = [query_accuracy(r).accuracy for r in records]
    return float(mean(values)) if values else 1.0


def overshoot_series(
    records: Sequence[QueryRecord],
    window_epochs: int,
    num_epochs: int,
) -> List[tuple[int, float]]:
    """Overshoot averaged per window of epochs (the Fig. 7 time series).

    Returns ``(window_start_epoch, mean_overshoot_percent)`` pairs; windows
    containing no queries are omitted.
    """
    if window_epochs <= 0:
        raise ValueError("window_epochs must be positive")
    buckets: dict[int, List[float]] = {}
    for record in records:
        window = (record.injection_epoch // window_epochs) * window_epochs
        buckets.setdefault(window, []).append(
            query_accuracy(record).overshoot_percent
        )
    return [
        (window, float(mean(values)))
        for window, values in sorted(buckets.items())
        if window < num_epochs
    ]


@dataclasses.dataclass(frozen=True)
class Fig5Point:
    """One bar group of Fig. 5: node-percentage breakdown for one setting."""

    delta_percent: float
    target_coverage: float
    should_receive_pct: float
    receive_pct: float
    source_pct: float
    should_not_receive_pct: float
    mean_overshoot_pct: float
    num_queries: int


def fig5_percentages(
    records: Sequence[QueryRecord],
    num_nodes: int,
    delta_percent: float,
    target_coverage: float,
) -> Fig5Point:
    """Average Fig. 5 percentages over a set of queries.

    ``num_nodes`` is the number of non-root nodes (the denominator the
    percentages are expressed against).
    """
    if num_nodes <= 0:
        raise ValueError("num_nodes must be positive")
    if not records:
        return Fig5Point(
            delta_percent=delta_percent,
            target_coverage=target_coverage,
            should_receive_pct=0.0,
            receive_pct=0.0,
            source_pct=0.0,
            should_not_receive_pct=100.0,
            mean_overshoot_pct=0.0,
            num_queries=0,
        )
    should = mean(len(r.should_receive) for r in records) / num_nodes * 100.0
    received = mean(len(r.received) for r in records) / num_nodes * 100.0
    sources = mean(len(r.sources) for r in records) / num_nodes * 100.0
    return Fig5Point(
        delta_percent=float(delta_percent),
        target_coverage=float(target_coverage),
        should_receive_pct=float(should),
        receive_pct=float(received),
        source_pct=float(sources),
        should_not_receive_pct=float(100.0 - should),
        mean_overshoot_pct=mean_overshoot(records),
        num_queries=len(records),
    )


def delivery_completeness(records: Iterable[QueryRecord]) -> float:
    """Fraction of true source nodes actually reached (averaged over queries).

    The paper only discusses overshoot (extra nodes); this companion metric
    verifies DirQ is not silently *missing* sources because of stale range
    information, which matters for downstream users.
    """
    fractions = []
    for record in records:
        if not record.sources:
            continue
        reached = len(record.sources & record.received)
        fractions.append(reached / len(record.sources))
    return float(mean(fractions)) if fractions else 1.0
