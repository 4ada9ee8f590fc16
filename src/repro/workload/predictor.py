"""Query-rate prediction at the root.

The paper assumes "the server connected to the root of the sensor network
... is capable of predicting the number of queries that will be posed to the
network in the next hour based on historical data", citing web-server access
prediction work [10].  This module provides that predictor: a smoothed
estimate over the realised per-hour query counts, with a simple trend term
so ramping workloads are anticipated rather than chased.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional


class QueryRatePredictor:
    """Predicts the number of queries expected in the next hour.

    Parameters
    ----------
    smoothing:
        Weight of the most recent hour in the exponential moving average.
    trend_weight:
        Fraction of the observed hour-over-hour trend added to the forecast
        (0 disables trend extrapolation).
    history:
        Number of recent per-hour counts retained for inspection.
    initial_estimate:
        Forecast returned before any hour has completed (e.g. the operator's
        guess at commissioning time).
    """

    def __init__(
        self,
        smoothing: float = 0.5,
        trend_weight: float = 0.3,
        history: int = 48,
        initial_estimate: float = 0.0,
    ):
        if not (0.0 < smoothing <= 1.0):
            raise ValueError("smoothing must be in (0, 1]")
        if not (0.0 <= trend_weight <= 1.0):
            raise ValueError("trend_weight must be in [0, 1]")
        if history < 2:
            raise ValueError("history must be >= 2")
        if initial_estimate < 0:
            raise ValueError("initial_estimate must be non-negative")
        self.smoothing = smoothing
        self.trend_weight = trend_weight
        self.initial_estimate = float(initial_estimate)
        self._level: Optional[float] = None
        self._trend = 0.0
        self._history: Deque[float] = deque(maxlen=history)

    # -- observation ---------------------------------------------------------

    def record(self, queries_in_hour: float) -> None:
        """Record the realised number of queries in the hour that just ended."""
        if queries_in_hour < 0:
            raise ValueError("queries_in_hour must be non-negative")
        value = float(queries_in_hour)
        self._history.append(value)
        if self._level is None:
            self._level = value
            self._trend = 0.0
            return
        previous_level = self._level
        self._level = (
            self.smoothing * value + (1.0 - self.smoothing) * self._level
        )
        self._trend = (
            self.smoothing * (self._level - previous_level)
            + (1.0 - self.smoothing) * self._trend
        )

    # -- forecast ---------------------------------------------------------------

    def predict(self) -> float:
        """Expected number of queries in the next hour (never negative)."""
        if self._level is None:
            return self.initial_estimate
        forecast = self._level + self.trend_weight * self._trend
        return max(0.0, forecast)

    # -- introspection -------------------------------------------------------------

    @property
    def history(self) -> list[float]:
        """Realised per-hour counts, oldest first."""
        return list(self._history)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QueryRatePredictor(level={self._level}, trend={self._trend:.3f}, "
            f"prediction={self.predict():.2f})"
        )
