"""Query injection schedules.

The paper injects a query every 20 epochs (§7).  Scenarios may also want
diurnal or bursty arrivals (e.g. to exercise the EHr predictor under
non-stationary load), so several schedules are provided behind one small
interface: a schedule is simply a list of injection epochs within
``[0, num_epochs)``.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np


def periodic_schedule(
    num_epochs: int, period: int = 20, start: int = 20
) -> List[int]:
    """The paper's schedule: one query every ``period`` epochs.

    The default starts at epoch ``period`` (not 0) so the very first query
    is issued after the network has had one period to populate its range
    tables, mirroring a warm-up phase.
    """
    if num_epochs <= 0:
        raise ValueError("num_epochs must be positive")
    if period <= 0:
        raise ValueError("period must be positive")
    if start < 0:
        raise ValueError("start must be non-negative")
    return list(range(start, num_epochs, period))


def diurnal_schedule(
    num_epochs: int,
    mean_rate_per_epoch: float,
    epochs_per_day: int,
    rng: np.random.Generator,
    peak_to_trough: float = 4.0,
) -> List[int]:
    """Non-stationary arrivals following a daily usage cycle.

    Models the paper's motivating scenario (researchers, students and the
    public querying a forest deployment): demand peaks during the day and
    drops at night, with ``peak_to_trough`` controlling the contrast.  Used
    to exercise the EHr predictor and the ATC's load adaptation.
    """
    if epochs_per_day <= 0:
        raise ValueError("epochs_per_day must be positive")
    if peak_to_trough < 1.0:
        raise ValueError("peak_to_trough must be >= 1.0")
    epochs = np.arange(num_epochs)
    modulation = 1.0 + (peak_to_trough - 1.0) / 2.0 * (
        1.0 + np.sin(2.0 * np.pi * epochs / epochs_per_day)
    )
    modulation /= modulation.mean()
    rates = mean_rate_per_epoch * modulation
    counts = rng.poisson(rates)
    out: List[int] = []
    for epoch, count in enumerate(counts):
        out.extend([epoch] * int(count))
    return out


def burst_schedule(
    num_epochs: int,
    burst_epochs: Sequence[int],
    queries_per_burst: int,
    background_period: int = 0,
) -> List[int]:
    """Bursts of queries at chosen epochs over an optional periodic background."""
    if queries_per_burst < 1:
        raise ValueError("queries_per_burst must be >= 1")
    out: List[int] = []
    if background_period > 0:
        out.extend(periodic_schedule(num_epochs, background_period))
    for epoch in burst_epochs:
        if not (0 <= epoch < num_epochs):
            raise ValueError(f"burst epoch {epoch} outside [0, {num_epochs})")
        out.extend([int(epoch)] * queries_per_burst)
    return sorted(out)
