"""Adaptive Threshold Control (ATC) -- paper §6.

The paper defers the full ATC specification to its companion report [13],
which is not publicly available, but it pins down the mechanism's contract:

* the threshold δ is chosen **per node, autonomously, from locally available
  information** (§1, §7);
* the inputs are the **number of queries expected over the next hour**
  (the root's EHr broadcast) and the **local rate of variation of the
  measured parameter** (§4, §6);
* the objective is to keep the total cost of DirQ at roughly **45–55 % of
  the cost of flooding** (§6, Fig. 6), without letting accuracy degrade
  appreciably (§7.2 reports ≈3.6 % average overshoot).

This module implements a controller with exactly that contract (the
substitution is documented in DESIGN.md):

1. **Root side** (:class:`RootBudgetPlanner`).  Each hour the root predicts
   the query load ``EHr``, computes the network-wide update budget that
   would make DirQ's total cost equal ``target_ratio`` x the flooding cost
   of that load (using eq. 3's flooding cost and the measured average
   dissemination cost per query), and divides it evenly among the alive
   nodes.  The per-node budget travels in the
   :class:`~repro.core.messages.EstimateMessage`.

2. **Node side** (:class:`AdaptiveThresholdController`).  Each node seeds δ
   from its locally observed signal variability (so fast-changing sensors
   start with wide thresholds) and thereafter adjusts it multiplicatively at
   the end of every window: if it sent more updates than its pro-rated
   budget it widens δ, if it sent fewer it narrows δ, with a dead band so a
   node already on budget leaves δ alone.  All quantities involved -- its own
   update count, its own reading history, and the budget received from the
   root -- are local, preserving the paper's autonomy requirement.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from .config import DirQConfig

#: Weight of the newest per-epoch change in the controller's exponential
#: rate-of-change estimate; the columnar tick
#: (:mod:`repro.experiments.columnar`) applies the same recurrence.
ROC_SMOOTHING = 0.05


@dataclasses.dataclass
class BudgetPlan:
    """Result of the root's hourly budget computation."""

    hour_index: int
    expected_queries: float
    flooding_cost_per_query: float
    query_cost_per_query: float
    network_update_budget: float
    node_update_budget: float
    network_size: int


class RootBudgetPlanner:
    """Computes the network-wide and per-node update budgets at the root.

    Parameters
    ----------
    config:
        Protocol configuration (target cost ratio, hour length).
    cost_per_update:
        Cost units consumed by one update message (1 tx + 1 rx = 2 under the
        paper's unit model).
    """

    def __init__(self, config: DirQConfig, cost_per_update: float = 2.0):
        self.config = config
        self.cost_per_update = float(cost_per_update)
        #: Smoothed per-query dissemination cost observed so far.
        self._avg_query_cost: Optional[float] = None
        self._smoothing = 0.3

    def observe_query_cost(self, cost: float) -> None:
        """Feed back the measured dissemination cost of a completed query."""
        if cost < 0:
            raise ValueError("query cost must be non-negative")
        if self._avg_query_cost is None:
            self._avg_query_cost = float(cost)
        else:
            self._avg_query_cost = (
                (1 - self._smoothing) * self._avg_query_cost + self._smoothing * cost
            )

    def plan(
        self,
        hour_index: int,
        expected_queries: float,
        flooding_cost_per_query: float,
        network_size: int,
    ) -> BudgetPlan:
        """Compute the update budget for the coming hour.

        The budget solves ``expected_queries * (C_QD + U * cost_per_update /
        expected_queries) = target_ratio * expected_queries * C_F`` for the
        network-wide update count ``U``; i.e. updates absorb whatever cost
        headroom remains between the dissemination cost and the target
        fraction of flooding.
        """
        if network_size < 1:
            raise ValueError("network_size must be >= 1")
        if expected_queries < 0:
            raise ValueError("expected_queries must be non-negative")
        if flooding_cost_per_query <= 0:
            raise ValueError("flooding_cost_per_query must be positive")
        query_cost = (
            self._avg_query_cost
            if self._avg_query_cost is not None
            # Before any query has been observed, assume dissemination costs
            # a modest fraction of flooding (it is refined within one hour).
            else 0.15 * flooding_cost_per_query
        )
        headroom_per_query = (
            self.config.atc_target_cost_ratio * flooding_cost_per_query - query_cost
        )
        network_budget = max(
            0.0, expected_queries * headroom_per_query / self.cost_per_update
        )
        node_budget = network_budget / max(1, network_size - 1)
        return BudgetPlan(
            hour_index=hour_index,
            expected_queries=float(expected_queries),
            flooding_cost_per_query=float(flooding_cost_per_query),
            query_cost_per_query=float(query_cost),
            network_update_budget=network_budget,
            node_update_budget=node_budget,
            network_size=int(network_size),
        )


class AdaptiveThresholdController:
    """Per-node δ controller (the node-autonomous half of ATC).

    Parameters
    ----------
    config:
        Protocol configuration (clamps, adjustment gain, window length).
    sensor_types:
        Sensor types present on this node at start-up (types learned later
        are added lazily with the current default δ).
    """

    def __init__(self, config: DirQConfig, sensor_types: Optional[list[str]] = None):
        self.config = config
        self._delta_percent: Dict[str, float] = {}
        for stype in sensor_types or []:
            self._delta_percent[stype] = config.atc_initial_delta_percent
        #: :meth:`delta_absolute` per type, cleared wherever
        #: ``_delta_percent`` changes (the node's full scale never does).
        self._delta_absolute: Dict[str, float] = {}
        #: Per-node update budget for one hour, from the latest estimate.
        self._hour_budget: Optional[float] = None
        #: Updates sent in the current adaptation window (all types).
        self._updates_this_window = 0
        #: Exponential estimate of the local per-epoch rate of change, per type.
        self._rate_of_change: Dict[str, float] = {}
        self._last_reading: Dict[str, float] = {}
        self._seeded: Dict[str, bool] = {}

    # -- inputs ------------------------------------------------------------------------

    def delta_percent(self, sensor_type: str) -> float:
        """Current threshold for ``sensor_type`` in percent of full scale."""
        if sensor_type not in self._delta_percent:
            self._delta_percent[sensor_type] = self.config.atc_initial_delta_percent
            self._delta_absolute.pop(sensor_type, None)
        return self._delta_percent[sensor_type]

    def delta_absolute(self, sensor_type: str) -> float:
        """Current threshold converted to an absolute reading delta."""
        delta = self._delta_absolute.get(sensor_type)
        if delta is None:
            delta = self._delta_absolute[sensor_type] = self.config.absolute_delta(
                sensor_type, self.delta_percent(sensor_type)
            )
        return delta

    def on_estimate(self, node_update_budget: Optional[float]) -> None:
        """Process the hourly EHr broadcast (new per-node budget)."""
        if node_update_budget is not None:
            self._hour_budget = max(0.0, float(node_update_budget))

    def on_reading(self, sensor_type: str, reading: float) -> None:
        """Track the local rate of change of the measured parameter.

        The smoothed mean absolute per-epoch change seeds the initial δ for
        the sensor type: a parameter changing by ``r`` per epoch and a
        per-hour budget of ``b`` updates allows roughly ``epochs_per_hour/b``
        epochs between updates, i.e. a threshold of about
        ``r * epochs_per_hour / b``.
        """
        prev = self._last_reading.get(sensor_type)
        self._last_reading[sensor_type] = float(reading)
        if prev is None:
            return
        change = abs(reading - prev)
        roc = self._rate_of_change.get(sensor_type)
        if roc is None:
            self._rate_of_change[sensor_type] = change
        else:
            self._rate_of_change[sensor_type] = (
                (1 - ROC_SMOOTHING) * roc + ROC_SMOOTHING * change
            )
        if not self._seeded.get(sensor_type) and self._hour_budget:
            self._seed_delta(sensor_type)

    def _seed_delta(self, sensor_type: str) -> None:
        roc = self._rate_of_change.get(sensor_type, 0.0)
        if roc <= 0 or not self._hour_budget:
            return
        epochs_between_updates = self.config.epochs_per_hour / max(
            self._hour_budget, 1e-9
        )
        target_abs = roc * epochs_between_updates
        full_scale = self.config.full_scale_of(sensor_type)
        target_pct = 100.0 * target_abs / full_scale
        self._delta_percent[sensor_type] = self._clamp(target_pct)
        self._delta_absolute.pop(sensor_type, None)
        self._seeded[sensor_type] = True

    def on_update_sent(self) -> None:
        """Count one transmitted Update Message (any sensor type)."""
        self._updates_this_window += 1

    # -- adaptation ---------------------------------------------------------------------

    def window_budget(self) -> Optional[float]:
        """Pro-rated update budget for one adaptation window."""
        if self._hour_budget is None:
            return None
        windows_per_hour = max(
            1.0, self.config.epochs_per_hour / self.config.atc_window_epochs
        )
        return self._hour_budget / windows_per_hour

    def end_window(self) -> Dict[str, float]:
        """Close the current adaptation window and adjust δ.

        Returns the new per-type thresholds (percent of full scale).  With no
        budget yet received the thresholds are left untouched.
        """
        budget = self.window_budget()
        sent = self._updates_this_window
        self._updates_this_window = 0
        if budget is None:
            return dict(self._delta_percent)

        tolerance = self.config.atc_tolerance
        gain = self.config.atc_adjust_factor
        if sent > budget * (1.0 + tolerance):
            # Spending too fast: widen the thresholds to suppress updates.
            # The step grows with the overload (capped) so a badly
            # mis-calibrated start converges within a few windows.
            overload = (sent - budget) / max(budget, 1e-9)
            factor = 1.0 + gain * min(overload, 4.0)
        elif sent < budget * (1.0 - tolerance):
            # Under budget: tighten the thresholds to regain accuracy.
            factor = 1.0 - gain * 0.5
        else:
            factor = 1.0

        if factor != 1.0:
            for stype in list(self._delta_percent):
                self._delta_percent[stype] = self._clamp(
                    self._delta_percent[stype] * factor
                )
            self._delta_absolute.clear()
        return dict(self._delta_percent)

    def _clamp(self, pct: float) -> float:
        return min(
            self.config.atc_delta_max_percent,
            max(self.config.atc_delta_min_percent, pct),
        )

    # -- introspection -------------------------------------------------------------------

    def rate_of_change(self, sensor_type: str) -> float:
        """Smoothed local per-epoch rate of change for ``sensor_type``."""
        return self._rate_of_change.get(sensor_type, 0.0)

    def snapshot(self) -> Dict[str, float]:
        """Current thresholds (percent) for every known sensor type."""
        return dict(self._delta_percent)
