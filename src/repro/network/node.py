"""Sensor node model.

A :class:`SensorNode` bundles what belongs to one physical device: its
identity, its position and the sensors mounted on it.  Whether it is
alive is recorded in the channel's alive set
(:attr:`~repro.network.channel.WirelessChannel.alive`), and a finite
energy budget, when a scenario sets one, in the runner's
``SimulationWorld.batteries``.  The paper's heterogeneity requirement
(Fig. 4: different nodes may carry different combinations of sensor types)
is modelled by each node owning an arbitrary subset of sensor types.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from .addresses import NodeId, validate_node_id


class SensorNode:
    """One device in the network.

    Parameters
    ----------
    node_id:
        Unique identifier.
    position:
        (x, y) coordinates in the deployment field.
    is_root:
        Whether this node is the sink connected to the user-facing server.
    """

    def __init__(
        self,
        node_id: NodeId,
        position: Tuple[float, float],
        is_root: bool = False,
    ):
        validate_node_id(node_id)
        self.node_id = node_id
        self.position = (float(position[0]), float(position[1]))
        self.is_root = bool(is_root)
        self._sensors: Dict[str, Any] = {}
        self._sensor_types_cache: Optional[List[str]] = None
        self._sensors_sorted_cache: Optional[List[Tuple[str, Any]]] = None
        #: Optional zero-argument callback fired after a sensor is
        #: attached, so a layer that caches sensor-derived state (the
        #: columnar tick's rows) learns that it must rebuild it.
        self.observer = None

    # -- sensors -----------------------------------------------------------

    def attach_sensor(self, sensor: Any) -> None:
        """Mount a sensor on this node.

        ``sensor`` must expose a ``sensor_type`` attribute (a string) and a
        ``sample(epoch)`` method; see :class:`repro.sensors.sensor.Sensor`.
        Attaching a second sensor of the same type replaces the first — the
        paper's "addition of new sensor types after deployment" is modelled
        by calling this after the simulation has started.
        """
        stype = getattr(sensor, "sensor_type", None)
        if not stype:
            raise ValueError("sensor must expose a non-empty sensor_type")
        self._sensors[str(stype)] = sensor
        self._sensor_types_cache = None
        self._sensors_sorted_cache = None
        if self.observer is not None:
            self.observer()

    def has_sensor(self, sensor_type: str) -> bool:
        return sensor_type in self._sensors

    def sensor(self, sensor_type: str) -> Any:
        if sensor_type not in self._sensors:
            raise KeyError(f"node {self.node_id} has no {sensor_type!r} sensor")
        return self._sensors[sensor_type]

    @property
    def sensor_types(self) -> List[str]:
        """Sorted sensor types mounted on this node.

        The protocol layer iterates this every epoch; the sorted list is
        cached and invalidated on attach so the hot loop does not
        re-sort an unchanged sensor suite 20 000 times.
        """
        cached = self._sensor_types_cache
        if cached is None:
            cached = self._sensor_types_cache = sorted(self._sensors)
        return list(cached)

    def sensors_sorted(self) -> List[Tuple[str, Any]]:
        """``(sensor_type, sensor)`` pairs in sorted type order (cached).

        The per-epoch sampling loop walks this list; it is rebuilt only when
        a sensor is attached.
        """
        cached = self._sensors_sorted_cache
        if cached is None:
            cached = self._sensors_sorted_cache = [
                (stype, self._sensors[stype]) for stype in self.sensor_types
            ]
        return cached

    def sample(self, sensor_type: str, epoch: int) -> float:
        """Acquire a reading from the named sensor at the given epoch."""
        sensor = self._sensors.get(sensor_type)
        if sensor is None:
            raise KeyError(f"node {self.node_id} has no {sensor_type!r} sensor")
        value = sensor.sample(epoch)
        return value if type(value) is float else float(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        role = "root" if self.is_root else "node"
        return (
            f"SensorNode({role} {self.node_id}, pos={self.position}, "
            f"sensors={self.sensor_types})"
        )
