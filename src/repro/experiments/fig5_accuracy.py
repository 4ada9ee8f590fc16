"""Reproduction of Fig. 5: effect of the threshold δ on dissemination accuracy.

The paper fixes δ at a range of values and measures, for queries sized to
involve 40 % (Fig. 5a) and 60 % (Fig. 5b) of the nodes, the percentage of
nodes that SHOULD receive each query, that actually RECEIVE it, that are
true sources, and that should NOT receive it.  The reported shape: the gap
between the RECEIVE and SHOULD curves grows with δ (stale, padded range
information routes queries to irrelevant subtrees), and the effect is less
pronounced at higher coverage.

The ``fig5`` campaign preset runs one cell per (δ, coverage) point
(``python -m repro run fig5``); :func:`render` turns its replicate groups
into the figure's tables.
"""

from __future__ import annotations

from statistics import fmean
from typing import Dict, List, Sequence

from ..core.config import ThresholdMode
from ..metrics.accuracy import fig5_percentages
from ..metrics.report import format_table
from ..metrics.stats import ReplicateGroup
from .config import ProtocolName

#: The :class:`~repro.metrics.accuracy.Fig5Point` fields of one table row.
_PERCENTAGES = (
    "should_receive_pct",
    "receive_pct",
    "source_pct",
    "should_not_receive_pct",
    "mean_overshoot_pct",
)


def render(groups: Sequence[ReplicateGroup]) -> str:
    """The Fig. 5 tables, one per coverage, over the fixed-δ cells.

    Every percentage is the replicate mean of the per-trial query averages.
    """
    rows: Dict[float, List[tuple]] = {}
    title = ""
    for group in groups:
        config = group.results[0].config
        if (
            config.protocol != ProtocolName.DIRQ
            or config.dirq.threshold_mode != ThresholdMode.FIXED
        ):
            continue
        delta = config.dirq.delta_percent
        coverage = config.target_coverage
        points = [
            fig5_percentages(
                r.audit.records, config.num_nodes - 1, delta, coverage
            )
            for r in group.results
        ]
        rows.setdefault(coverage, []).append(
            (delta,)
            + tuple(fmean(getattr(p, f) for p in points) for f in _PERCENTAGES)
            + (group.metrics["source_completeness"].mean,)
        )
        title = f"({config.num_nodes} nodes, {config.num_epochs} epochs)"
    return "\n\n".join(
        format_table(
            headers=[
                "delta %",
                "SHOULD recv %",
                "RECEIVE %",
                "sources %",
                "should NOT %",
                "overshoot pp",
                "src completeness",
            ],
            rows=sorted(rows[coverage]),
            title=(
                f"Fig. 5 -- percentage of relevant nodes = "
                f"{int(coverage * 100)}% {title}"
            ),
        )
        for coverage in sorted(rows)
    )
