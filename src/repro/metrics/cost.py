"""Cost metrics: DirQ vs flooding energy accounting (paper §5, §7.2).

The paper's headline result is that DirQ's total cost (query dissemination
plus range updates) lands at 45–55 % of what flooding the same query load
would cost.  The functions here aggregate the channel's
:class:`~repro.energy.ledger.NetworkLedger` into the quantities used by
that comparison and by the Fig. 6 update-rate series.
"""

from __future__ import annotations

import dataclasses

from ..core.messages import (
    DIRQ_COST_KINDS,
    ESTIMATE_KIND,
    FLOOD_KIND,
    QUERY_KIND,
    UPDATE_KIND,
)
from ..energy.ledger import NetworkLedger


@dataclasses.dataclass(frozen=True)
class CostBreakdown:
    """Energy cost split by traffic class (in the paper's unit costs)."""

    query_cost: float
    update_cost: float
    estimate_cost: float
    flood_cost: float
    total_dirq_cost: float


def cost_breakdown(ledger: NetworkLedger) -> CostBreakdown:
    """Aggregate a ledger into per-traffic-class costs."""
    query = ledger.total_cost([QUERY_KIND])
    update = ledger.total_cost([UPDATE_KIND])
    estimate = ledger.total_cost([ESTIMATE_KIND])
    flood = ledger.total_cost([FLOOD_KIND])
    return CostBreakdown(
        query_cost=query,
        update_cost=update,
        estimate_cost=estimate,
        flood_cost=flood,
        total_dirq_cost=ledger.total_cost(DIRQ_COST_KINDS),
    )


def dirq_cost(ledger: NetworkLedger) -> float:
    """Total DirQ cost C_TD = C_QD + C_UD (+ estimate overhead)."""
    return ledger.total_cost(DIRQ_COST_KINDS)


@dataclasses.dataclass(frozen=True)
class CostComparison:
    """DirQ vs flooding comparison for the same query workload."""

    dirq_total: float
    flooding_total: float
    num_queries: int
    dirq_per_query: float
    flooding_per_query: float
    ratio: float

    def within_band(self, low: float = 0.45, high: float = 0.55) -> bool:
        """Whether the measured ratio falls inside the paper's reported band."""
        return low <= self.ratio <= high


def compare_costs(
    dirq_ledger: NetworkLedger,
    flooding_reference: float,
    num_queries: int,
    flooding_is_total: bool = True,
) -> CostComparison:
    """Compare a DirQ run against a flooding reference.

    Parameters
    ----------
    dirq_ledger:
        Ledger of the DirQ run.
    flooding_reference:
        Either the total flooding cost for the same workload
        (``flooding_is_total=True``) or the per-query flooding cost
        (``flooding_is_total=False``), e.g. eq. 3's ``N + 2L``.
    num_queries:
        Number of queries in the workload.
    """
    if num_queries < 0:
        raise ValueError("num_queries must be non-negative")
    dirq_total = dirq_cost(dirq_ledger)
    flooding_total = (
        float(flooding_reference)
        if flooding_is_total
        else float(flooding_reference) * num_queries
    )
    per_query_dirq = dirq_total / num_queries if num_queries else 0.0
    per_query_flood = flooding_total / num_queries if num_queries else 0.0
    ratio = dirq_total / flooding_total if flooding_total > 0 else float("inf")
    return CostComparison(
        dirq_total=dirq_total,
        flooding_total=flooding_total,
        num_queries=num_queries,
        dirq_per_query=per_query_dirq,
        flooding_per_query=per_query_flood,
        ratio=ratio,
    )
