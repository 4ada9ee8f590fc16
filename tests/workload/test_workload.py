"""Tests for the query workload: ground truth, generation, schedules, prediction."""

import numpy as np
import pytest

from repro.core.messages import RangeQuery
from repro.network.spanning_tree import build_bfs_tree
from repro.workload.generator import QueryWorkloadGenerator
from repro.workload.ground_truth import (
    evaluate_query,
    involvement_fraction,
    relevant_nodes,
    source_nodes,
)
from repro.workload.injection import (
    burst_schedule,
    diurnal_schedule,
    periodic_schedule,
)
from repro.workload.predictor import QueryRatePredictor

from ..helpers import constant_dataset, line_topology


class TestGroundTruth:
    @pytest.fixture
    def setup(self):
        topo = line_topology(5)
        data = constant_dataset(
            topo.node_ids, {0: 10.0, 1: 20.0, 2: 30.0, 3: 40.0, 4: 50.0}, num_epochs=10
        )
        return topo, data, build_bfs_tree(topo, root=0)

    def test_source_nodes_match_readings(self, setup):
        _, data, _ = setup
        q = RangeQuery(0, "temperature", 25.0, 45.0)
        assert source_nodes(data, q, epoch=0) == {2, 3}

    def test_source_nodes_respect_sensor_ownership(self, setup):
        _, data, _ = setup
        q = RangeQuery(0, "temperature", 25.0, 45.0)
        owners = {"temperature": {3}}
        assert source_nodes(data, q, 0, sensor_owners=owners) == {3}

    def test_source_nodes_respect_liveness(self, setup):
        _, data, _ = setup
        q = RangeQuery(0, "temperature", 25.0, 45.0)
        assert source_nodes(data, q, 0, alive={0, 1, 2, 4}) == {2}

    def test_relevant_nodes_include_forwarders_exclude_root(self, setup):
        _, _, tree = setup
        assert relevant_nodes(tree, [4]) == {1, 2, 3, 4}
        assert relevant_nodes(tree, [4], include_root=True) == {0, 1, 2, 3, 4}

    def test_evaluate_query_combines_both(self, setup):
        _, data, tree = setup
        q = RangeQuery(0, "temperature", 38.0, 55.0)
        sources, should = evaluate_query(data, tree, q, 0)
        assert sources == {3, 4}
        assert should == {1, 2, 3, 4}

    def test_involvement_fraction(self, setup):
        _, data, tree = setup
        q = RangeQuery(0, "temperature", 48.0, 55.0)  # only node 4 matches
        assert involvement_fraction(data, tree, q, 0) == pytest.approx(4 / 4)
        q2 = RangeQuery(1, "temperature", 18.0, 22.0)  # only node 1
        assert involvement_fraction(data, tree, q2, 0) == pytest.approx(1 / 4)


class TestWorkloadGenerator:
    @pytest.fixture
    def generator(self, small_topology, small_dataset, rng):
        tree = build_bfs_tree(small_topology, root=0)
        return QueryWorkloadGenerator(small_dataset, tree, rng)

    def test_generated_query_has_valid_bounds_and_ids(self, generator):
        g1 = generator.generate(epoch=10, target_coverage=0.4)
        g2 = generator.generate(epoch=10, target_coverage=0.4)
        assert g1.query.low <= g1.query.high
        assert g2.query.query_id == g1.query.query_id + 1

    def test_achieved_coverage_tracks_target(self, generator):
        for target in (0.2, 0.4, 0.6):
            achieved = [
                generator.generate(epoch, target).achieved_coverage
                for epoch in range(20, 120, 20)
            ]
            mean = sum(achieved) / len(achieved)
            assert abs(mean - target) < 0.25

    def test_higher_target_means_higher_coverage(self, generator):
        low = [generator.generate(e, 0.2).achieved_coverage for e in range(10, 60, 10)]
        high = [generator.generate(e, 0.8).achieved_coverage for e in range(10, 60, 10)]
        assert sum(high) / len(high) > sum(low) / len(low)

    def test_fixed_sensor_type_respected(self, generator):
        g = generator.generate(5, 0.4, sensor_type="humidity")
        assert g.query.sensor_type == "humidity"
        with pytest.raises(KeyError):
            generator.generate(5, 0.4, sensor_type="nonexistent")

    def test_invalid_coverage_rejected(self, generator):
        with pytest.raises(ValueError):
            generator.generate(5, 0.0)
        with pytest.raises(ValueError):
            generator.generate(5, 1.5)


class TestInjectionSchedules:
    def test_periodic_matches_paper_default(self):
        schedule = periodic_schedule(200, period=20)
        assert schedule == [20, 40, 60, 80, 100, 120, 140, 160, 180]

    def test_periodic_validation(self):
        with pytest.raises(ValueError):
            periodic_schedule(0, 20)
        with pytest.raises(ValueError):
            periodic_schedule(100, 0)

    def test_diurnal_schedule_peaks_and_troughs(self):
        rng = np.random.default_rng(2)
        schedule = diurnal_schedule(
            4000, mean_rate_per_epoch=0.1, epochs_per_day=2000, rng=rng, peak_to_trough=6.0
        )
        counts = np.bincount(np.asarray(schedule) // 500, minlength=8)
        assert max(counts) > 2 * max(1, min(counts))

    def test_burst_schedule(self):
        schedule = burst_schedule(100, burst_epochs=[50], queries_per_burst=5,
                                  background_period=25)
        assert schedule.count(50) == 5
        # Background injections every 25 epochs (starting at the warm-up offset).
        assert 20 in schedule and 45 in schedule and 95 in schedule
        with pytest.raises(ValueError):
            burst_schedule(100, [150], 2)


class TestPredictor:
    def test_initial_estimate_before_any_data(self):
        p = QueryRatePredictor(initial_estimate=25.0)
        assert p.predict() == 25.0

    def test_converges_to_constant_rate(self):
        p = QueryRatePredictor(smoothing=0.5)
        for _ in range(10):
            p.record(25)
        assert p.predict() == pytest.approx(25.0, abs=0.5)

    def test_tracks_increasing_trend(self):
        trendless = QueryRatePredictor(smoothing=0.5, trend_weight=0.0)
        trended = QueryRatePredictor(smoothing=0.5, trend_weight=0.5)
        for value in [10, 12, 14, 16, 18, 20]:
            trendless.record(value)
            trended.record(value)
        # The trend term pushes the forecast ahead of the smoothed level.
        assert trended.predict() > trendless.predict()
        assert trended.predict() > 18.0

    def test_prediction_never_negative(self):
        p = QueryRatePredictor(smoothing=1.0, trend_weight=1.0)
        p.record(100)
        p.record(0)
        assert p.predict() >= 0.0

    def test_history_bounded(self):
        p = QueryRatePredictor(history=5)
        for i in range(10):
            p.record(i)
        assert len(p.history) == 5
        assert p.history[-1] == 9

    def test_validation(self):
        with pytest.raises(ValueError):
            QueryRatePredictor(smoothing=0.0)
        with pytest.raises(ValueError):
            QueryRatePredictor(trend_weight=2.0)
        with pytest.raises(ValueError):
            QueryRatePredictor(history=1)
        with pytest.raises(ValueError):
            QueryRatePredictor().record(-1)
