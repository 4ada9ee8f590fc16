"""Sensor dataset container.

The :class:`SensorDataset` is the ground truth of an experiment: for every
sensor type it stores a full ``(epochs, nodes)`` matrix of readings.  The
simulation's sensors sample from it (so DirQ's view of the world is exactly
this data) and the metrics layer evaluates query relevance against it (so
accuracy/overshoot are measured against the true relevant set).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..network.addresses import NodeId
from .phenomena import generate_fields
from .types import SensorTypeSpec, default_type_specs


class SensorDataset:
    """Ground-truth readings for every node, sensor type, and epoch.

    Parameters
    ----------
    node_ids:
        Node identifiers, in the column order of the reading matrices.
    readings:
        Mapping sensor type -> ``(num_epochs, len(node_ids))`` array.
    specs:
        Optional mapping of sensor type -> :class:`SensorTypeSpec` used to
        generate the data (kept for reporting).
    """

    def __init__(
        self,
        node_ids: Sequence[NodeId],
        readings: Dict[str, np.ndarray],
        specs: Optional[Dict[str, SensorTypeSpec]] = None,
    ):
        self.node_ids: List[NodeId] = list(node_ids)
        if len(set(self.node_ids)) != len(self.node_ids):
            raise ValueError("node_ids contains duplicates")
        self._index = {nid: i for i, nid in enumerate(self.node_ids)}
        self.readings: Dict[str, np.ndarray] = {}
        self.specs = dict(specs) if specs is not None else {}
        num_epochs: Optional[int] = None
        for stype, arr in readings.items():
            arr = np.asarray(arr, dtype=float)
            if arr.ndim != 2 or arr.shape[1] != len(self.node_ids):
                raise ValueError(
                    f"readings[{stype!r}] must have shape (epochs, {len(self.node_ids)})"
                )
            if num_epochs is None:
                num_epochs = arr.shape[0]
            elif arr.shape[0] != num_epochs:
                raise ValueError("all sensor types must cover the same epochs")
            self.readings[stype] = arr
        if num_epochs is None:
            raise ValueError("dataset must contain at least one sensor type")
        self.num_epochs = int(num_epochs)

    # -- constructors -----------------------------------------------------------

    @classmethod
    def generate(
        cls,
        node_ids: Sequence[NodeId],
        positions: np.ndarray,
        num_epochs: int,
        rng: np.random.Generator,
        specs: Optional[Dict[str, SensorTypeSpec]] = None,
        epochs_per_day: int = 2000,
        spatial_method: str = "exact",
    ) -> "SensorDataset":
        """Generate the paper's synthetic dataset.

        Produces one spatio-temporally correlated field per sensor type in
        ``specs`` (the four defaults when omitted) over ``num_epochs`` epochs
        for the given node positions.  ``spatial_method`` selects the
        spatial-colouring strategy -- ``"exact"`` (the paper's dense
        Gaussian field, unchanged draw-for-draw) or ``"lowrank"`` (the
        random-Fourier-feature approximation needed at thousands of nodes);
        see :class:`~repro.sensors.phenomena.PhenomenonField`.
        """
        if specs is None:
            specs = default_type_specs()
        readings = generate_fields(
            specs,
            np.asarray(positions, dtype=float),
            num_epochs,
            rng=rng,
            epochs_per_day=epochs_per_day,
            spatial_method=spatial_method,
        )
        return cls(node_ids=node_ids, readings=readings, specs=specs)

    # -- access --------------------------------------------------------------------

    @property
    def sensor_types(self) -> List[str]:
        """Sorted sensor types present in the dataset."""
        return sorted(self.readings)

    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)

    def has_type(self, sensor_type: str) -> bool:
        return sensor_type in self.readings

    def column_of(self, node_id: NodeId) -> int:
        """Column index of ``node_id`` in the reading matrices."""
        if node_id not in self._index:
            raise KeyError(f"node {node_id} not in dataset")
        return self._index[node_id]

    def reading(self, sensor_type: str, node_id: NodeId, epoch: int) -> float:
        """Ground-truth reading of one node at one epoch."""
        self._check_epoch(epoch)
        return float(self.readings[sensor_type][epoch, self.column_of(node_id)])

    def epoch_slice(self, sensor_type: str, epoch: int) -> np.ndarray:
        """Readings of every node (dataset column order) at one epoch."""
        self._check_epoch(epoch)
        return self.readings[sensor_type][epoch]

    def node_series(self, sensor_type: str, node_id: NodeId) -> np.ndarray:
        """Full time series of one node for one sensor type."""
        return self.readings[sensor_type][:, self.column_of(node_id)]

    def value_range(self, sensor_type: str) -> tuple[float, float]:
        """(min, max) over all nodes and epochs for one sensor type."""
        arr = self.readings[sensor_type]
        return float(arr.min()), float(arr.max())

    def rate_of_change(self, sensor_type: str) -> np.ndarray:
        """Mean absolute per-epoch change for every node (dataset order).

        This is the per-node "rate of variation of the measured physical
        parameter" that the ATC mechanism conditions on.
        """
        arr = self.readings[sensor_type]
        if arr.shape[0] < 2:
            return np.zeros(arr.shape[1])
        return np.abs(np.diff(arr, axis=0)).mean(axis=0)

    def matching_nodes(
        self, sensor_type: str, epoch: int, low: float, high: float
    ) -> List[NodeId]:
        """Nodes whose ground-truth reading at ``epoch`` lies within [low, high].

        This defines the true *source nodes* for a range query and is the
        reference the accuracy metric compares DirQ's routing against.
        """
        self._check_epoch(epoch)
        if low > high:
            raise ValueError("low must not exceed high")
        values = self.readings[sensor_type][epoch]
        mask = (values >= low) & (values <= high)
        return [self.node_ids[i] for i in np.nonzero(mask)[0]]

    def _check_epoch(self, epoch: int) -> None:
        if not (0 <= epoch < self.num_epochs):
            raise IndexError(
                f"epoch {epoch} out of range [0, {self.num_epochs})"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SensorDataset(nodes={self.num_nodes}, epochs={self.num_epochs}, "
            f"types={self.sensor_types})"
        )
