"""Tests for addressing and the sensor node model."""

import pytest

from repro.energy.battery import Battery
from repro.network.addresses import BROADCAST, is_broadcast, validate_node_id
from repro.network.node import SensorNode
from repro.sensors.dataset import SensorDataset

from ..helpers import constant_dataset


class TestAddresses:
    def test_valid_ids_pass_through(self):
        assert validate_node_id(0) == 0
        assert validate_node_id(17) == 17

    def test_broadcast_only_when_allowed(self):
        assert validate_node_id(BROADCAST, allow_broadcast=True) == BROADCAST
        with pytest.raises(ValueError):
            validate_node_id(BROADCAST)

    def test_negative_and_non_int_rejected(self):
        with pytest.raises(ValueError):
            validate_node_id(-5)
        with pytest.raises(TypeError):
            validate_node_id("3")
        with pytest.raises(TypeError):
            validate_node_id(True)

    def test_is_broadcast(self):
        assert is_broadcast(BROADCAST)
        assert not is_broadcast(0)


class TestSensorNode:
    @pytest.fixture
    def dataset(self) -> SensorDataset:
        return constant_dataset([0, 1], {0: 5.0, 1: 7.0}, num_epochs=10)

    def test_attach_and_sample(self, dataset):
        from repro.sensors.sensor import Sensor

        node = SensorNode(1, (0.0, 0.0))
        node.attach_sensor(Sensor(1, "temperature", dataset))
        assert node.has_sensor("temperature")
        assert node.sensor_types == ["temperature"]
        assert node.sample("temperature", 0) == 7.0

    def test_sampling_missing_sensor_raises(self):
        node = SensorNode(1, (0.0, 0.0))
        with pytest.raises(KeyError):
            node.sample("humidity", 0)

    def test_attach_requires_sensor_type(self):
        node = SensorNode(0, (0.0, 0.0))

        class Broken:
            sensor_type = ""

        with pytest.raises(ValueError):
            node.attach_sensor(Broken())

    def test_kill_and_revive(self):
        node = SensorNode(3, (1.0, 2.0))
        assert node.alive
        node.kill()
        assert not node.alive
        node.revive()
        assert node.alive

    def test_default_battery_is_infinite(self):
        node = SensorNode(0, (0.0, 0.0))
        assert node.battery.remaining == node.battery.capacity == float("inf")
        assert not node.battery.depleted

    def test_explicit_battery(self):
        node = SensorNode(0, (0.0, 0.0), battery=Battery(10.0))
        node.battery.draw(4.0)
        assert node.battery.remaining == 6.0

    def test_invalid_node_id(self):
        with pytest.raises(ValueError):
            SensorNode(-2, (0.0, 0.0))
