"""Reproduction of Fig. 6: update messages per 100 epochs, fixed δ vs ATC.

The paper plots, for 40 % relevant nodes, the total number of Update
Messages transmitted by all nodes per 100 epochs over a 20 000-epoch run for
fixed thresholds δ = 3 %, 5 %, 9 % and for the Adaptive Threshold Control,
together with the U_max/Hr reference line (the update rate at which DirQ's
total cost would reach the cost of flooding) and its 0.45/0.55 multiples.
The reported shape: small fixed thresholds produce update rates far above
the budget, large ones far below, and the ATC series settles inside the
0.45–0.55 band -- which is precisely where DirQ's total cost sits at 45-55 %
of flooding.

The ``fig6`` campaign preset runs one cell per threshold setting
(``python -m repro run fig6``); :func:`render` turns its replicate groups
into the windowed series, the U_max band and the cost table.
"""

from __future__ import annotations

from statistics import mean
from typing import List, Sequence

from ..core.analytical import update_budget_per_hour
from ..metrics.report import format_series, format_table
from ..metrics.series import SeriesSet, WindowPoint
from ..metrics.stats import ReplicateGroup, mean_series
from .batch import TrialResult

ATC_LABEL = "atc"


def umax_per_window(result: TrialResult) -> float:
    """U_max expressed per metrics window (the Fig. 6 horizontal line).

    U_max/Hr is the number of update messages per hour at which DirQ's total
    cost (measured dissemination cost plus updates at two cost units each)
    equals the flooding cost of the expected query load; see
    :func:`repro.core.analytical.update_budget_per_hour`.
    """
    config = result.config
    queries_per_window = config.window_epochs / config.query_period
    avg_query_cost = (
        sum(result.per_query_costs) / len(result.per_query_costs)
        if result.per_query_costs
        else 0.0
    )
    return update_budget_per_hour(
        expected_queries_per_hour=queries_per_window,
        flooding_cost_per_query=result.flooding_cost_per_query,
        query_cost_per_query=avg_query_cost,
    )


def render(groups: Sequence[ReplicateGroup]) -> str:
    """The Fig. 6 series (one per protocol variant), U_max band and costs.

    A series is the per-window replicate mean; U_max is the replicate mean
    of the first cell's.
    """
    first = groups[0].results[0].config
    series = SeriesSet(window_epochs=first.window_epochs)
    rows = {}
    umax = float(mean(umax_per_window(r) for r in groups[0].results))
    for group in groups:
        name = str(group.tags["protocol"])
        starts = [p.window_start for p in group.results[0].update_series]
        values = mean_series(
            [[p.value for p in r.update_series] for r in group.results]
        )
        series.add_series(
            name,
            [WindowPoint(window_start=s, value=v) for s, v in zip(starts, values)],
        )
        rows[name] = (
            name,
            group.metrics["updates_per_window"].mean,
            group.metrics["cost_ratio"].mean,
        )
    lines: List[str] = [
        "Fig. 6 -- Update Messages transmitted per "
        f"{first.window_epochs} epochs "
        f"({int(first.target_coverage * 100)}% relevant nodes)",
        "",
        f"U_max per window       : {umax:.1f}",
        f"0.45 * U_max            : {0.45 * umax:.1f}",
        f"0.55 * U_max            : {0.55 * umax:.1f}",
        "",
    ]
    for name in series.names():
        starts, values = series.as_arrays(name)
        lines.append(format_series(name, list(starts), list(values)))
    lines.append("")
    lines.append(
        format_table(
            headers=["setting", "mean updates/window", "total cost / flooding"],
            rows=[rows[name] for name in series.names()],
            float_format="{:.3f}",
        )
    )
    if ATC_LABEL in rows:
        occupancy = series.fraction_within(
            ATC_LABEL, 0.45 * umax, 0.55 * umax, skip_windows=2
        )
        lines.append("")
        lines.append(
            "ATC windows inside the 0.45-0.55 U_max band "
            f"(after transient): {occupancy:.0%}"
        )
    return "\n".join(lines)
