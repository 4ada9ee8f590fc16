"""Reproduction of Fig. 7: overshoot over time for fixed δ and the ATC.

The paper plots, for queries involving 20 % of the nodes, the overshoot
(extra nodes reached beyond the ground-truth relevant set, in percentage
points of the node population) over the 20 000-epoch run for δ = 3 %, 5 %,
9 % and for the ATC, and reports an average ATC overshoot of ≈3.6 %.  The
shape to reproduce: overshoot grows with δ, and the ATC's overshoot stays
bounded and below the largest fixed threshold it is willing to use.

The ``fig7`` campaign preset runs one cell per threshold setting
(``python -m repro run fig7``); :func:`render` turns its replicate groups
into the overshoot series and averages.
"""

from __future__ import annotations

from typing import List, Sequence

from ..metrics.accuracy import overshoot_series
from ..metrics.report import format_series, format_table
from ..metrics.stats import ReplicateGroup, mean_series

#: Averaging window of the series: the paper smooths visually over a few
#: hundred epochs, and with one query every 20 epochs a 400-epoch window
#: averages 20 queries per point.
WINDOW_EPOCHS = 400


def render(groups: Sequence[ReplicateGroup]) -> str:
    """The Fig. 7 overshoot series (one per protocol variant) and averages.

    A series is the per-window replicate mean; averages are replicate means.
    """
    series = {}
    rows = {}
    for group in groups:
        name = str(group.tags["protocol"])
        rep_series = [
            overshoot_series(r.audit.records, WINDOW_EPOCHS, r.config.num_epochs)
            for r in group.results
        ]
        windows = [w for w, _ in rep_series[0]]
        series[name] = (
            windows,
            mean_series([[v for _, v in s] for s in rep_series]),
        )
        rows[name] = (
            name,
            group.metrics["mean_overshoot_pp"].mean,
            group.metrics["cost_ratio"].mean,
        )
    coverage = groups[0].results[0].config.target_coverage
    lines: List[str] = [
        "Fig. 7 -- Overshoot (percentage points of the node population), "
        f"{int(coverage * 100)}% relevant nodes",
        "",
    ]
    for name in sorted(series):
        lines.append(format_series(name, *series[name]))
    lines.append("")
    lines.append(
        format_table(
            headers=["setting", "average overshoot pp", "total cost / flooding"],
            rows=[rows[name] for name in sorted(rows)],
            float_format="{:.3f}",
            title="Averages (paper: ATC average overshoot ~3.6%)",
        )
    )
    return "\n".join(lines)
