"""Metrics: audit, accuracy/overshoot, costs, series, replication + resilience stats."""

from .accuracy import (
    Fig5Point,
    QueryAccuracy,
    delivery_completeness,
    fig5_percentages,
    mean_accuracy,
    mean_overshoot,
    overshoot_series,
    query_accuracy,
)
from .audit import QueryAudit, QueryRecord
from .cost import (
    CostBreakdown,
    CostComparison,
    compare_costs,
    cost_breakdown,
    dirq_cost,
)
from .report import (
    format_key_values,
    format_mean_ci,
    format_replicate_table,
    format_series,
    format_table,
)
from .resilience import (
    DegradationRow,
    degradation_rows,
    first_disruption_epoch,
    format_degradation_table,
    recovery_epochs,
    recovery_summary,
    recovery_time,
    windowed_accuracy,
)
from .series import SeriesSet, UpdateRateRecorder, WindowedCounter, WindowPoint
from .stats import (
    DEFAULT_METRICS,
    ReplicateGroup,
    ReplicateSummary,
    group_replicates,
    groups_to_jsonable,
    student_t_critical,
)

__all__ = [
    "Fig5Point",
    "QueryAccuracy",
    "delivery_completeness",
    "fig5_percentages",
    "mean_accuracy",
    "mean_overshoot",
    "overshoot_series",
    "query_accuracy",
    "QueryAudit",
    "QueryRecord",
    "CostBreakdown",
    "CostComparison",
    "compare_costs",
    "cost_breakdown",
    "dirq_cost",
    "format_key_values",
    "format_mean_ci",
    "format_replicate_table",
    "format_series",
    "format_table",
    "DegradationRow",
    "degradation_rows",
    "first_disruption_epoch",
    "format_degradation_table",
    "recovery_epochs",
    "recovery_summary",
    "recovery_time",
    "windowed_accuracy",
    "DEFAULT_METRICS",
    "ReplicateGroup",
    "ReplicateSummary",
    "group_replicates",
    "groups_to_jsonable",
    "student_t_critical",
    "SeriesSet",
    "UpdateRateRecorder",
    "WindowedCounter",
    "WindowPoint",
]
