"""DirQ core: the paper's primary contribution and its direct comparators."""

from .analytical import (
    AnalyticalRow,
    analytical_table,
    build_kary_tree,
    dirq_total_cost,
    f_max,
    flooding_cost,
    flooding_cost_by_enumeration,
    flooding_cost_general,
    max_query_cost_by_enumeration,
    max_query_dissemination_cost,
    max_update_cost,
    max_update_cost_by_enumeration,
    paper_example,
    tree_num_internal,
    tree_num_leaves,
    tree_num_links,
    tree_num_nodes,
    update_budget_per_hour,
)
from .atc import AdaptiveThresholdController, BudgetPlan, RootBudgetPlanner
from .config import DirQConfig, ThresholdMode
from .dirq_node import DirQNode
from .dirq_root import DirQRoot
from .flooding import FloodingNode, FloodingRoot
from .messages import (
    DIRQ_COST_KINDS,
    ESTIMATE_KIND,
    FLOOD_KIND,
    QUERY_KIND,
    UPDATE_KIND,
    EstimateMessage,
    RangeQuery,
    UpdateMessage,
)
from .protocol import DisseminationProtocol
from .range_table import RangeEntry, RangeTable, RangeTableSet

__all__ = [
    "AnalyticalRow",
    "analytical_table",
    "build_kary_tree",
    "dirq_total_cost",
    "f_max",
    "flooding_cost",
    "flooding_cost_by_enumeration",
    "flooding_cost_general",
    "max_query_cost_by_enumeration",
    "max_query_dissemination_cost",
    "max_update_cost",
    "max_update_cost_by_enumeration",
    "paper_example",
    "tree_num_internal",
    "tree_num_leaves",
    "tree_num_links",
    "tree_num_nodes",
    "update_budget_per_hour",
    "AdaptiveThresholdController",
    "BudgetPlan",
    "RootBudgetPlanner",
    "DirQConfig",
    "ThresholdMode",
    "DirQNode",
    "DirQRoot",
    "FloodingNode",
    "FloodingRoot",
    "DIRQ_COST_KINDS",
    "ESTIMATE_KIND",
    "FLOOD_KIND",
    "QUERY_KIND",
    "UPDATE_KIND",
    "EstimateMessage",
    "RangeQuery",
    "UpdateMessage",
    "DisseminationProtocol",
    "RangeEntry",
    "RangeTable",
    "RangeTableSet",
]
