"""Windowed time series collection (the Fig. 6 machinery).

Fig. 6 plots the total number of Update Messages transmitted network-wide
per 100 epochs over the length of the run, together with the ``U_max/Hr``
budget line and its 0.45/0.55 multiples.  :class:`WindowedCounter` collects
such per-window counts during a simulation by snapshotting the energy
ledger at window boundaries; :class:`SeriesSet` bundles several series for
reporting.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence

import numpy as np

from ..energy.ledger import NetworkLedger


@dataclasses.dataclass(frozen=True)
class WindowPoint:
    """One point of a windowed series."""

    window_start: int
    value: float


class WindowedCounter:
    """Counts events (e.g. update transmissions) per window of epochs.

    The counter works by differencing successive snapshots of a monotone
    total, so it can be driven directly from the network ledger without
    instrumenting the protocols.
    """

    def __init__(self, window_epochs: int = 100):
        if window_epochs <= 0:
            raise ValueError("window_epochs must be positive")
        self.window_epochs = int(window_epochs)
        self._points: List[WindowPoint] = []
        self._last_total = 0.0
        self._last_window_closed = -1

    def close_window(self, window_start: int, running_total: float) -> WindowPoint:
        """Close the window starting at ``window_start``.

        ``running_total`` is the monotone cumulative count at the end of the
        window; the per-window value is the difference from the previous
        snapshot.
        """
        if window_start <= self._last_window_closed:
            raise ValueError(
                f"window {window_start} already closed (last closed "
                f"{self._last_window_closed})"
            )
        value = float(running_total) - self._last_total
        self._last_total = float(running_total)
        self._last_window_closed = window_start
        point = WindowPoint(window_start=window_start, value=value)
        self._points.append(point)
        return point

    @property
    def points(self) -> List[WindowPoint]:
        return list(self._points)


class UpdateRateRecorder:
    """Records the Fig. 6 series: update transmissions per window.

    Parameters
    ----------
    ledger:
        The network ledger charged by the channel.
    window_epochs:
        Window length (the paper uses 100 epochs).
    kind:
        The ledger kind to count; transmissions of ``"update"`` messages by
        default.
    """

    def __init__(
        self,
        ledger: NetworkLedger,
        window_epochs: int = 100,
        kind: str = "update",
    ):
        self.ledger = ledger
        self.kind = kind
        self.counter = WindowedCounter(window_epochs)

    def on_window_end(self, window_start: int) -> WindowPoint:
        """Snapshot the ledger at the end of a window."""
        total = self.ledger.total_count(direction="tx", kind=self.kind)
        return self.counter.close_window(window_start, float(total))

    @property
    def series(self) -> List[WindowPoint]:
        return self.counter.points


@dataclasses.dataclass
class SeriesSet:
    """A named bundle of windowed series.

    Used by the Fig. 6 experiment to hold one series per threshold setting
    (δ = 3 %, 5 %, 9 %, ATC).
    """

    window_epochs: int
    series: Dict[str, List[WindowPoint]] = dataclasses.field(default_factory=dict)

    def add_series(self, name: str, points: Sequence[WindowPoint]) -> None:
        self.series[name] = list(points)

    def names(self) -> List[str]:
        return sorted(self.series)

    def as_arrays(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        points = self.series[name]
        return (
            np.array([p.window_start for p in points], dtype=int),
            np.array([p.value for p in points], dtype=float),
        )

    def fraction_within(
        self, name: str, low: float, high: float, skip_windows: int = 0
    ) -> float:
        """Fraction of windows whose value lies in ``[low, high]``.

        ``skip_windows`` drops the initial transient (e.g. before the first
        EHr estimate has propagated), matching how one reads Fig. 6.
        """
        _, values = self.as_arrays(name)
        values = values[skip_windows:]
        if values.size == 0:
            return 0.0
        mask = (values >= low) & (values <= high)
        return float(mask.mean())
