"""Reproduction of the paper's headline claim (abstract / §7.2).

"Our results show that DirQ spends between 45% and 55% the cost of
flooding" while suffering only a small accuracy overshoot.  The
``headline`` campaign preset (``python -m repro run headline``) runs DirQ
with the Adaptive Threshold Control and the flooding baseline on the
*same* topology, dataset and query workload -- replicate ``i`` of both
cells shares one derived seed -- and :func:`render` compares their total
costs (:func:`paired_comparison`) and accuracy.
"""

from __future__ import annotations

from statistics import fmean
from typing import Sequence

from ..metrics.cost import CostComparison, compare_costs
from ..metrics.report import format_key_values
from ..metrics.stats import ReplicateGroup


def paired_comparison(
    dirq: ReplicateGroup, flooding: ReplicateGroup
) -> CostComparison:
    """Replicate means of the paired (same-workload) DirQ/flooding comparisons.

    The ratio is the mean of the per-replicate ratios, not the quotient of
    the two mean totals.
    """
    comparisons = [
        compare_costs(
            dirq_ledger=d.ledger,
            flooding_reference=f.breakdown.flood_cost,
            num_queries=f.num_queries,
            flooding_is_total=True,
        )
        for d, f in zip(dirq.results, flooding.results)
    ]
    return CostComparison(
        dirq_total=fmean(c.dirq_total for c in comparisons),
        flooding_total=fmean(c.flooding_total for c in comparisons),
        num_queries=round(fmean(c.num_queries for c in comparisons)),
        dirq_per_query=fmean(c.dirq_per_query for c in comparisons),
        flooding_per_query=fmean(c.flooding_per_query for c in comparisons),
        ratio=fmean(c.ratio for c in comparisons),
    )


def render(groups: Sequence[ReplicateGroup]) -> str:
    """The cost breakdown of the ``atc`` cell against the ``flooding`` one.

    Every printed number is a replicate mean, so the breakdown rows sum to
    the printed DirQ total.  The ratio is the mean of per-replicate (paired
    same-workload) ratios, which is why it is labelled as such rather than
    being the quotient of the two printed totals.
    """
    by_protocol = {group.tags["protocol"]: group for group in groups}
    dirq, flooding = by_protocol["atc"], by_protocol["flooding"]
    comparison = paired_comparison(dirq, flooding)
    ratio_label = (
        "DirQ / flooding ratio (mean of paired per-replicate ratios)"
        if dirq.n > 1
        else "DirQ / flooding ratio"
    )
    return format_key_values(
        "Headline: DirQ (ATC) vs flooding on the same workload "
        "(paper: DirQ costs 45-55% of flooding)",
        [
            ("queries", comparison.num_queries),
            ("flooding total cost", comparison.flooding_total),
            ("DirQ total cost", comparison.dirq_total),
            (
                "  query dissemination",
                fmean(r.breakdown.query_cost for r in dirq.results),
            ),
            (
                "  range updates",
                fmean(r.breakdown.update_cost for r in dirq.results),
            ),
            (
                "  EHr estimates",
                fmean(r.breakdown.estimate_cost for r in dirq.results),
            ),
            (ratio_label, comparison.ratio),
            ("within 45-55% band", comparison.within_band()),
            ("DirQ mean overshoot (pp)", dirq.metrics["mean_overshoot_pp"].mean),
            (
                "DirQ source completeness",
                dirq.metrics["source_completeness"].mean,
            ),
        ],
    )
