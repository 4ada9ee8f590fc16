"""Tests for the synthetic phenomena generator and the dataset container."""

import numpy as np
import pytest

from repro.sensors.dataset import SensorDataset
from repro.sensors.phenomena import (
    PhenomenonField,
    ar1_coefficient,
    empirical_spatial_correlation,
    spatial_covariance,
)
from repro.sensors.sensor import SamplingCounter, Sensor
from repro.sensors.types import SensorTypeSpec, default_type_specs


@pytest.fixture
def positions(rng):
    return rng.uniform(0, 100, size=(30, 2))


class TestSpatialCovariance:
    def test_diagonal_is_one_plus_jitter(self, positions):
        cov = spatial_covariance(positions, spatial_scale=20.0)
        assert np.allclose(np.diag(cov), 1.0, atol=1e-6)

    def test_symmetric_positive_definite(self, positions):
        cov = spatial_covariance(positions, spatial_scale=20.0)
        assert np.allclose(cov, cov.T)
        np.linalg.cholesky(cov)  # raises if not PD

    def test_correlation_decays_with_distance(self):
        pos = np.array([[0.0, 0.0], [5.0, 0.0], [60.0, 0.0]])
        cov = spatial_covariance(pos, spatial_scale=20.0)
        assert cov[0, 1] > cov[0, 2]

    def test_invalid_inputs(self, positions):
        with pytest.raises(ValueError):
            spatial_covariance(positions, spatial_scale=0.0)
        with pytest.raises(ValueError):
            spatial_covariance(np.zeros((3, 3)), spatial_scale=1.0)


class TestAR1:
    def test_coefficient_in_unit_interval(self):
        assert 0.0 < ar1_coefficient(10.0) < 1.0

    def test_longer_scale_means_higher_coefficient(self):
        assert ar1_coefficient(500.0) > ar1_coefficient(5.0)

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            ar1_coefficient(0.0)


class TestPhenomenonField:
    def test_output_shape_and_finiteness(self, positions, rng):
        spec = SensorTypeSpec("temperature", amplitude=2.0, spatial_scale=25.0)
        field = PhenomenonField(spec, positions, rng)
        data = field.generate(300)
        assert data.shape == (300, 30)
        assert np.isfinite(data).all()

    def test_mean_close_to_base_value(self, positions, rng):
        spec = SensorTypeSpec("t", base_value=20.0, amplitude=1.0, spatial_scale=25.0)
        data = PhenomenonField(spec, positions, rng).generate(2000)
        assert abs(data.mean() - 20.0) < 1.5

    def test_nearby_nodes_more_correlated_than_distant(self, rng):
        # The property the paper relies on: spatial relatedness.
        pos = rng.uniform(0, 100, size=(40, 2))
        spec = SensorTypeSpec("t", amplitude=2.0, spatial_scale=20.0, temporal_scale=50.0)
        data = PhenomenonField(spec, pos, rng).generate(2000)
        near, far = empirical_spatial_correlation(data, pos, near_threshold=25.0)
        assert near > far

    def test_temporal_autocorrelation_present(self, positions, rng):
        spec = SensorTypeSpec("t", amplitude=2.0, spatial_scale=25.0, temporal_scale=200.0)
        data = PhenomenonField(spec, positions, rng).generate(2000)
        series = data[:, 0] - data[:, 0].mean()
        lag1 = np.corrcoef(series[:-1], series[1:])[0, 1]
        assert lag1 > 0.9  # slow field: adjacent epochs highly correlated

    def test_reproducible_for_same_rng_seed(self, positions):
        spec = SensorTypeSpec("t", amplitude=1.0, spatial_scale=25.0)
        a = PhenomenonField(spec, positions, np.random.default_rng(3)).generate(50)
        b = PhenomenonField(spec, positions, np.random.default_rng(3)).generate(50)
        assert np.array_equal(a, b)

    def test_diurnal_cycle_visible(self, positions, rng):
        spec = SensorTypeSpec(
            "t", amplitude=0.01, diurnal_amplitude=5.0, spatial_scale=25.0
        )
        field = PhenomenonField(spec, positions, rng, epochs_per_day=100)
        data = field.generate(200)
        node0 = data[:, 0]
        assert node0.max() - node0.min() > 7.0  # ~2 x diurnal amplitude

    def test_invalid_epochs(self, positions, rng):
        spec = SensorTypeSpec("t")
        with pytest.raises(ValueError):
            PhenomenonField(spec, positions, rng).generate(0)


class TestSensorDataset:
    def test_generate_covers_all_types_and_epochs(self, small_topology, rng):
        ds = SensorDataset.generate(
            node_ids=small_topology.node_ids,
            positions=small_topology.position_array(),
            num_epochs=100,
            rng=rng,
        )
        assert ds.num_epochs == 100
        assert ds.num_nodes == small_topology.num_nodes
        assert set(ds.sensor_types) == {"temperature", "humidity", "light", "pressure"}

    def test_reading_and_slices_consistent(self, small_dataset):
        ds = small_dataset
        nid = ds.node_ids[3]
        assert ds.reading("temperature", nid, 7) == pytest.approx(
            ds.epoch_slice("temperature", 7)[ds.column_of(nid)]
        )
        assert ds.node_series("temperature", nid)[7] == pytest.approx(
            ds.reading("temperature", nid, 7)
        )

    def test_matching_nodes_agrees_with_direct_comparison(self, small_dataset):
        ds = small_dataset
        values = ds.epoch_slice("temperature", 10)
        lo, hi = float(np.percentile(values, 25)), float(np.percentile(values, 75))
        expected = {ds.node_ids[i] for i, v in enumerate(values) if lo <= v <= hi}
        assert set(ds.matching_nodes("temperature", 10, lo, hi)) == expected

    def test_value_range_and_rate_of_change(self, small_dataset):
        lo, hi = small_dataset.value_range("temperature")
        assert lo < hi
        roc = small_dataset.rate_of_change("temperature")
        assert roc.shape == (small_dataset.num_nodes,)
        assert (roc >= 0).all()

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            SensorDataset(node_ids=[0, 0], readings={"t": np.zeros((5, 2))})
        with pytest.raises(ValueError):
            SensorDataset(node_ids=[0, 1], readings={"t": np.zeros((5, 3))})
        with pytest.raises(ValueError):
            SensorDataset(node_ids=[0], readings={})
        ds = SensorDataset(node_ids=[0, 1], readings={"t": np.zeros((5, 2))})
        with pytest.raises(IndexError):
            ds.reading("t", 0, 5)
        with pytest.raises(KeyError):
            ds.column_of(9)
        with pytest.raises(ValueError):
            ds.matching_nodes("t", 0, low=2.0, high=1.0)


class TestSensor:
    def test_sample_returns_dataset_value(self, small_dataset):
        nid = small_dataset.node_ids[0]
        sensor = Sensor(nid, "temperature", small_dataset)
        assert sensor.sample(5) == small_dataset.reading("temperature", nid, 5)

    def test_calibration_offset_applied(self, small_dataset):
        nid = small_dataset.node_ids[0]
        sensor = Sensor(nid, "temperature", small_dataset, calibration_offset=1.5)
        truth = small_dataset.reading("temperature", nid, 5)
        assert sensor.sample(5) == pytest.approx(truth + 1.5)

    def test_sampling_counter_tracks_acquisitions(self, small_dataset):
        counter = SamplingCounter()
        nid = small_dataset.node_ids[0]
        sensor = Sensor(nid, "temperature", small_dataset, counter=counter)
        for epoch in range(4):
            sensor.sample(epoch)
        assert counter.count(node_id=nid) == 4
        assert counter.count(sensor_type="temperature") == 4
        counter.reset()
        assert counter.count() == 0

    def test_unknown_type_or_node_rejected(self, small_dataset):
        with pytest.raises(KeyError):
            Sensor(small_dataset.node_ids[0], "nonexistent", small_dataset)
        with pytest.raises(KeyError):
            Sensor(9999, "temperature", small_dataset)


class TestDefaultSpecs:
    def test_four_types_with_positive_scales(self):
        specs = default_type_specs()
        assert len(specs) == 4
        for spec in specs.values():
            assert spec.spatial_scale > 0
            assert spec.temporal_scale > 0
            assert spec.full_scale is not None and spec.full_scale > 0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SensorTypeSpec("")
        with pytest.raises(ValueError):
            SensorTypeSpec("x", spatial_scale=-1.0)
        with pytest.raises(ValueError):
            SensorTypeSpec("x", full_scale=0.0)
