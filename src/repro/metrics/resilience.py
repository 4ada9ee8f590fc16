"""Resilience metrics: degradation vs a static baseline, recovery time.

The dynamic scenarios (:mod:`repro.scenarios`) ask a question the static
§7 evaluation cannot: *how much worse* does DirQ get under churn, mobility,
bursty load or energy exhaustion, and *how fast* does it recover after a
disruption.  This module provides the two measurement primitives:

* **Degradation** -- side-by-side comparison of a scenario's replicate
  group against the static baseline's, per scalar metric
  (:func:`degradation_rows`), for every cell of a campaign whose baseline
  twin ran too (:func:`cell_degradation`).
* **Recovery time** -- epochs from a churn/battery-death event until the
  windowed query accuracy returns to within ``tolerance`` of its
  pre-event level (:func:`recovery_epochs`), summarised across replicates
  by :func:`recovery_summary`; :func:`replicate_groups` adds it to each
  replicate group of a campaign.

Everything is duck-typed against the ``TrialResult`` / ``ReplicateGroup``
APIs (``audit``, ``scenario_events``, ``metrics``), keeping the metrics
package free of experiment-layer imports, and all outputs are pure
functions of the deterministic trial payload -- they are safe to include
in bit-identity-checked JSON exports.
"""

from __future__ import annotations

import dataclasses
from statistics import mean
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .accuracy import query_accuracy
from .audit import QueryRecord
from .report import format_table
from .stats import (
    DEFAULT_CONFIDENCE,
    ReplicateGroup,
    ReplicateSummary,
    group_replicates,
)

#: Default accuracy slack (absolute) for declaring a recovery, and the
#: window (epochs) the accuracy is measured over.
DEFAULT_RECOVERY_TOLERANCE = 0.1
DEFAULT_RECOVERY_WINDOW = 100


def windowed_accuracy(
    records: Sequence[QueryRecord], window_epochs: int
) -> List[Tuple[int, float]]:
    """Mean query accuracy per ``window_epochs`` window.

    Returns ``(window_start_epoch, mean_accuracy)`` pairs; windows without
    queries are omitted (there is nothing to measure in them).
    """
    if window_epochs <= 0:
        raise ValueError("window_epochs must be positive")
    buckets: Dict[int, List[float]] = {}
    for record in records:
        window = (record.injection_epoch // window_epochs) * window_epochs
        buckets.setdefault(window, []).append(query_accuracy(record).accuracy)
    return [(window, float(mean(vals))) for window, vals in sorted(buckets.items())]


def first_disruption_epoch(result) -> Optional[int]:
    """Epoch of the first scenario-driven node death (None without one).

    ``result`` is duck-typed: anything with a ``scenario_events`` list of
    ``(epoch, kind, node_id)`` tuples (``TrialResult`` /
    ``ExperimentResult``).
    """
    kills = [epoch for epoch, kind, _ in getattr(result, "scenario_events", []) if kind == "kill"]
    return min(kills) if kills else None


def recovery_epochs(
    records: Sequence[QueryRecord],
    event_epoch: int,
    window_epochs: int = 100,
    tolerance: float = DEFAULT_RECOVERY_TOLERANCE,
) -> Optional[int]:
    """Epochs from ``event_epoch`` until windowed accuracy recovers.

    The pre-event level is the mean accuracy of all queries injected before
    ``event_epoch``; recovery is the first window of **post-event** queries
    whose mean accuracy is at least ``pre_level - tolerance``, counted
    conservatively to the *end* of that window.  Pre-event queries are
    excluded from the windowed series so a window straddling the event
    cannot pass on the strength of its pre-disruption traffic.  Returns
    ``None`` when there is no pre-event traffic to define a level, or when
    accuracy never recovers within the recorded run.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    pre = [
        query_accuracy(r).accuracy
        for r in records
        if r.injection_epoch < event_epoch
    ]
    if not pre:
        return None
    pre_level = float(mean(pre))
    post = [r for r in records if r.injection_epoch >= event_epoch]
    for window_start, value in windowed_accuracy(post, window_epochs):
        if value >= pre_level - tolerance:
            return window_start + window_epochs - event_epoch
    return None


def recovery_time(
    result,
    window_epochs: int = DEFAULT_RECOVERY_WINDOW,
    tolerance: float = DEFAULT_RECOVERY_TOLERANCE,
) -> Optional[int]:
    """Recovery time of one trial, anchored at its first scenario kill."""
    event_epoch = first_disruption_epoch(result)
    if event_epoch is None:
        return None
    return recovery_epochs(
        result.audit.records, event_epoch, window_epochs, tolerance
    )


def recovery_summary(
    results: Iterable[object],
    window_epochs: int = DEFAULT_RECOVERY_WINDOW,
    tolerance: float = DEFAULT_RECOVERY_TOLERANCE,
    confidence: float = DEFAULT_CONFIDENCE,
) -> Optional[ReplicateSummary]:
    """Summarise recovery times across replicates (None when undefined).

    Replicates without a disruption, or whose accuracy never recovered, are
    excluded; when no replicate yields a recovery time the summary is
    ``None`` rather than a fabricated zero.
    """
    values = [
        t
        for t in (recovery_time(r, window_epochs, tolerance) for r in results)
        if t is not None
    ]
    if not values:
        return None
    return ReplicateSummary.from_values(
        "recovery_epochs", values, confidence=confidence
    )


def replicate_groups(
    results: Iterable[object], metrics: Mapping[str, Callable[[object], float]]
) -> List[ReplicateGroup]:
    """One replicate group per cell of ``results``, with recovery when defined.

    Each group summarises ``metrics``, plus ``recovery_epochs`` at the
    default window and tolerance when any replicate recovered.
    """
    groups = group_replicates(results, metrics=metrics)
    for group in groups:
        recovery = recovery_summary(group.results)
        if recovery is not None:
            group.metrics[recovery.metric] = recovery
    return groups


# ---------------------------------------------------------------------------
# Degradation vs a static baseline
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class DegradationRow:
    """One metric's scenario-vs-baseline comparison."""

    metric: str
    baseline_mean: float
    scenario_mean: float
    delta: float
    delta_percent: Optional[float]  # None when the baseline mean is ~0


#: Metrics compared by default (present in ``stats.DEFAULT_METRICS``).
DEFAULT_DEGRADATION_METRICS = (
    "mean_accuracy",
    "source_completeness",
    "cost_ratio",
    "mean_overshoot_pp",
)


def degradation_rows(
    scenario_group,
    baseline_group,
    metrics: Optional[Sequence[str]] = None,
) -> List[DegradationRow]:
    """Scenario-vs-baseline deltas, one row per (shared) metric.

    Both arguments are :class:`~repro.metrics.stats.ReplicateGroup`-shaped
    (a ``metrics`` mapping of :class:`ReplicateSummary`); metrics absent
    from either group are skipped.
    """
    names = list(metrics) if metrics is not None else list(DEFAULT_DEGRADATION_METRICS)
    rows: List[DegradationRow] = []
    for name in names:
        if name not in scenario_group.metrics or name not in baseline_group.metrics:
            continue
        base = baseline_group.metrics[name].mean
        scen = scenario_group.metrics[name].mean
        delta = scen - base
        percent = 100.0 * delta / base if abs(base) > 1e-12 else None
        rows.append(
            DegradationRow(
                metric=name,
                baseline_mean=base,
                scenario_mean=scen,
                delta=delta,
                delta_percent=percent,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Campaign-wide degradation
# ---------------------------------------------------------------------------


def cell_degradation(
    cells: Mapping[Tuple[str, str], object],
    baseline: str,
    metrics: Optional[Sequence[str]] = None,
) -> List[Tuple[str, str, List[DegradationRow]]]:
    """Per-cell degradation against the baseline scenario's twin cell.

    ``cells`` maps ``(scenario, cell)`` -- ``cell`` names the protocol
    variant and sweep point -- to a ``ReplicateGroup``-shaped object
    (insertion order is report order); every non-baseline cell is compared
    to ``cells[(baseline, cell)]`` -- the static reference *under the same
    protocol and sweep point*, so the deltas isolate the scenario's effect.
    Cells whose baseline twin is absent are skipped.
    """
    out: List[Tuple[str, str, List[DegradationRow]]] = []
    for (scenario, cell), group in cells.items():
        if scenario == baseline:
            continue
        base = cells.get((baseline, cell))
        if base is None:
            continue
        out.append((scenario, cell, degradation_rows(group, base, metrics=metrics)))
    return out


def format_degradation_table(
    entries: Sequence[Tuple[str, str, Sequence[DegradationRow]]],
    title: Optional[str] = None,
    float_format: str = "{:.3f}",
) -> str:
    """Render :func:`cell_degradation` output: one row per (cell, metric).

    Each row carries the baseline and scenario means, their difference and
    the percentage change (``-`` when the baseline mean is ~0).
    """
    body = [
        (
            f"{scenario}/{cell}",
            row.metric,
            row.baseline_mean,
            row.scenario_mean,
            row.delta,
            "-" if row.delta_percent is None else f"{row.delta_percent:+.1f}%",
        )
        for scenario, cell, rows in entries
        for row in rows
    ]
    if not body:
        return title or "(no shared metrics to compare)"
    return format_table(
        headers=["cell", "metric", "baseline", "scenario", "delta", "delta %"],
        rows=body,
        float_format=float_format,
        title=title,
    )
