"""Sensors mounted on nodes.

A :class:`Sensor` is the bridge between a node and the ground-truth
:class:`~repro.sensors.dataset.SensorDataset`: sampling it at an epoch
returns the dataset value for that node, so the protocol under test
observes exactly the synthetic phenomena the experiment generated.

The paper notes as future work that continuous sampling is energy-hungry;
:class:`SamplingCounter` counts the acquisitions of every sensor sharing it
so that ablations can quantify that cost.
"""

from __future__ import annotations

from typing import Optional

from ..network.addresses import NodeId
from .dataset import SensorDataset


class SamplingCounter:
    """Counts sensor acquisitions, summed over the sensors that share it."""

    def __init__(self) -> None:
        self.total = 0

    def count(self) -> int:
        """Acquisitions so far."""
        return self.total


class Sensor:
    """One physical sensor of a given type mounted on a node.

    Parameters
    ----------
    node_id:
        The node the sensor is mounted on.
    sensor_type:
        Which phenomenon it measures (must exist in the dataset).
    dataset:
        Ground-truth dataset backing the readings.
    counter:
        Optional :class:`SamplingCounter` to record acquisitions in.
    """

    def __init__(
        self,
        node_id: NodeId,
        sensor_type: str,
        dataset: SensorDataset,
        counter: Optional[SamplingCounter] = None,
    ):
        if not dataset.has_type(sensor_type):
            raise KeyError(f"dataset has no sensor type {sensor_type!r}")
        dataset.column_of(node_id)  # raises if the node is unknown
        self.node_id = node_id
        self.sensor_type = sensor_type
        self.dataset = dataset
        self.counter = counter
        # Sampling happens once per epoch for the whole run, so the node's
        # ground-truth column is resolved once here instead of going through
        # dataset.reading's per-call type/column lookups.
        self._series = dataset.node_series(sensor_type, node_id)
        self._num_epochs = len(self._series)

    def sample(self, epoch: int) -> float:
        """Acquire a reading for the given epoch."""
        counter = self.counter
        if counter is not None:
            counter.total += 1
        if not 0 <= epoch < self._num_epochs:
            raise IndexError(
                f"epoch {epoch} out of range [0, {self._num_epochs})"
            )
        # ndarray.item() returns a Python float directly, skipping the
        # intermediate numpy scalar that float(arr[i]) would build.
        return self._series.item(epoch)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Sensor(node={self.node_id}, type={self.sensor_type!r})"
