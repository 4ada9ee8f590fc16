"""Query workload: generation, injection schedules, rate prediction, ground truth."""

from .generator import GeneratedQuery, QueryWorkloadGenerator
from .ground_truth import (
    evaluate_query,
    relevant_nodes,
    source_nodes,
)
from .injection import (
    burst_schedule,
    diurnal_schedule,
    periodic_schedule,
)
from .predictor import QueryRatePredictor

__all__ = [
    "GeneratedQuery",
    "QueryWorkloadGenerator",
    "evaluate_query",
    "relevant_nodes",
    "source_nodes",
    "burst_schedule",
    "diurnal_schedule",
    "periodic_schedule",
    "QueryRatePredictor",
]
