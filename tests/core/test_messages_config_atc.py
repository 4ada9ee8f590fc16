"""Tests for protocol messages, DirQ configuration, and the ATC controller."""

import pytest

from repro.core.atc import AdaptiveThresholdController, RootBudgetPlanner
from repro.core.config import DirQConfig, ThresholdMode
from repro.core.messages import (
    EstimateMessage,
    RangeQuery,
    UpdateMessage,
)
from repro.experiments.batch import config_json
from repro.experiments.config import ExperimentConfig

from ..helpers import build_mini_world, constant_dataset, line_topology


class TestRangeQuery:
    def test_matches_inclusive_bounds(self):
        q = RangeQuery(1, "temperature", 22.0, 25.0)
        assert q.matches(22.0) and q.matches(25.0) and q.matches(23.5)
        assert not q.matches(21.99)

    def test_overlaps_subtree_range(self):
        q = RangeQuery(1, "temperature", 22.0, 25.0)
        assert q.overlaps(20.0, 22.0)       # touching
        assert q.overlaps(24.0, 30.0)
        assert q.overlaps(0.0, 100.0)       # containing
        assert not q.overlaps(25.1, 30.0)
        assert not q.overlaps(0.0, 21.9)

    def test_invalid_query(self):
        with pytest.raises(ValueError):
            RangeQuery(1, "temperature", 25.0, 22.0)
        with pytest.raises(ValueError):
            RangeQuery(1, "", 0.0, 1.0)


class TestOtherMessages:
    def test_update_message_validation(self):
        with pytest.raises(ValueError):
            UpdateMessage(3, "humidity", 55.0, 40.0)
        # Removal updates carry no meaningful range and skip the check.
        UpdateMessage(3, "humidity", 0.0, 0.0, removed=True)

    def test_estimate_message_validation(self):
        EstimateMessage(expected_queries=10.0, hour_index=2, node_update_budget=3.5)
        with pytest.raises(ValueError):
            EstimateMessage(expected_queries=-1.0, hour_index=0)
        with pytest.raises(ValueError):
            EstimateMessage(expected_queries=1.0, hour_index=0, node_update_budget=-2.0)


class TestDirQConfig:
    def test_defaults_are_valid(self):
        cfg = DirQConfig()
        assert cfg.threshold_mode == ThresholdMode.FIXED
        assert not cfg.adaptive

    def test_absolute_delta_uses_full_scale(self):
        cfg = DirQConfig(delta_percent=5.0, full_scale={"temperature": 20.0})
        assert cfg.absolute_delta("temperature") == pytest.approx(1.0)
        assert cfg.absolute_delta("temperature", delta_percent=10.0) == pytest.approx(2.0)
        # Unknown types fall back to the default full scale.
        assert cfg.absolute_delta("unknown") == pytest.approx(5.0)

    def test_replace_returns_modified_copy(self):
        cfg = DirQConfig()
        adaptive = cfg.replace(threshold_mode=ThresholdMode.ADAPTIVE)
        assert adaptive.adaptive
        assert not cfg.adaptive

    def test_derived_configs_share_no_full_scale(self):
        base = ExperimentConfig(num_nodes=10)
        derived = [
            base.with_atc(),
            base.with_fixed_delta(3.0),
            base.with_atc().with_fixed_delta(7.0),
        ]
        scales = [base.dirq.full_scale] + [cfg.dirq.full_scale for cfg in derived]
        assert len({id(scale) for scale in scales}) == len(scales)

    def test_building_a_mini_world_writes_nothing_to_its_config(self):
        cfg = ExperimentConfig(num_nodes=5).with_atc()
        cfg.dirq.full_scale["humidity"] = 40.0
        before = config_json(cfg)
        topology = line_topology(5)
        data = constant_dataset(topology.node_ids, {n: float(n) for n in range(5)})
        world = build_mini_world(topology, data, config=cfg.dirq)
        assert config_json(cfg) == before
        # The world runs a copy carrying the dataset's full scales, and the
        # caller's values win.
        assert world.config.full_scale == {"humidity": 40.0, "temperature": 10.0}

    def test_validation(self):
        with pytest.raises(ValueError):
            DirQConfig(threshold_mode="bogus")
        with pytest.raises(ValueError):
            DirQConfig(delta_percent=0.0)
        with pytest.raises(ValueError):
            DirQConfig(epochs_per_hour=0)
        with pytest.raises(ValueError):
            DirQConfig(atc_target_cost_ratio=1.5)
        with pytest.raises(ValueError):
            DirQConfig(atc_delta_min_percent=10.0, atc_delta_max_percent=5.0)


class TestRootBudgetPlanner:
    def test_budget_targets_fraction_of_flooding(self):
        cfg = DirQConfig(atc_target_cost_ratio=0.5)
        planner = RootBudgetPlanner(cfg)
        planner.observe_query_cost(60.0)
        plan = planner.plan(
            hour_index=0, expected_queries=20, flooding_cost_per_query=400.0, network_size=50
        )
        # Headroom per query = 0.5*400 - 60 = 140 -> 70 updates per query.
        assert plan.network_update_budget == pytest.approx(20 * 140 / 2.0)
        assert plan.node_update_budget == pytest.approx(plan.network_update_budget / 49)

    def test_query_cost_feedback_is_smoothed(self):
        planner = RootBudgetPlanner(DirQConfig())
        planner.observe_query_cost(100.0)
        planner.observe_query_cost(0.0)
        plan = planner.plan(0, 10, flooding_cost_per_query=400.0, network_size=10)
        assert 0.0 < plan.query_cost_per_query < 100.0

    def test_budget_clamped_at_zero(self):
        cfg = DirQConfig(atc_target_cost_ratio=0.5)
        planner = RootBudgetPlanner(cfg)
        planner.observe_query_cost(500.0)  # dissemination alone exceeds target
        plan = planner.plan(0, 10, flooding_cost_per_query=400.0, network_size=10)
        assert plan.network_update_budget == 0.0

    def test_default_query_cost_assumption_before_feedback(self):
        planner = RootBudgetPlanner(DirQConfig(atc_target_cost_ratio=0.5))
        plan = planner.plan(0, 10, flooding_cost_per_query=400.0, network_size=10)
        assert plan.query_cost_per_query == pytest.approx(60.0)  # 15% of C_F

    def test_invalid_inputs(self):
        planner = RootBudgetPlanner(DirQConfig())
        with pytest.raises(ValueError):
            planner.observe_query_cost(-1.0)
        with pytest.raises(ValueError):
            planner.plan(0, 10, flooding_cost_per_query=0.0, network_size=10)
        with pytest.raises(ValueError):
            planner.plan(0, 10, flooding_cost_per_query=10.0, network_size=0)
        with pytest.raises(ValueError):
            planner.plan(0, -1, flooding_cost_per_query=10.0, network_size=5)


class TestAdaptiveThresholdController:
    def make(self, **cfg_kwargs):
        cfg = DirQConfig(
            threshold_mode=ThresholdMode.ADAPTIVE,
            full_scale={"temperature": 20.0},
            epochs_per_hour=200,
            atc_window_epochs=50,
            **cfg_kwargs,
        )
        return cfg, AdaptiveThresholdController(cfg, ["temperature"])

    def test_initial_delta_is_config_default(self):
        cfg, atc = self.make()
        assert atc.delta_percent("temperature") == cfg.atc_initial_delta_percent
        assert atc.delta_absolute("temperature") == pytest.approx(
            cfg.atc_initial_delta_percent / 100 * 20.0
        )

    def test_unknown_type_gets_default_threshold_lazily(self):
        _, atc = self.make()
        assert atc.delta_percent("new-type") == 3.0

    def test_over_budget_widens_threshold(self):
        _, atc = self.make()
        atc.on_estimate(node_update_budget=4.0)  # 1 per window
        before = atc.delta_percent("temperature")
        for _ in range(10):
            atc.on_update_sent()
        atc.end_window()
        assert atc.delta_percent("temperature") > before

    def test_under_budget_narrows_threshold(self):
        _, atc = self.make()
        atc.on_estimate(node_update_budget=40.0)  # 10 per window
        before = atc.delta_percent("temperature")
        atc.on_update_sent()  # only 1 sent
        atc.end_window()
        assert atc.delta_percent("temperature") < before

    def test_within_tolerance_leaves_threshold_unchanged(self):
        _, atc = self.make()
        atc.on_estimate(node_update_budget=8.0)  # 2 per window
        before = atc.delta_percent("temperature")
        atc.on_update_sent()
        atc.on_update_sent()
        atc.end_window()
        assert atc.delta_percent("temperature") == pytest.approx(before)

    def test_threshold_clamped_to_configured_range(self):
        cfg, atc = self.make(atc_delta_max_percent=6.0)
        atc.on_estimate(node_update_budget=0.5)
        for _ in range(20):
            for _ in range(50):
                atc.on_update_sent()
            atc.end_window()
        assert atc.delta_percent("temperature") <= 6.0

    def test_no_adjustment_before_any_estimate(self):
        _, atc = self.make()
        before = atc.delta_percent("temperature")
        for _ in range(10):
            atc.on_update_sent()
        atc.end_window()
        assert atc.delta_percent("temperature") == pytest.approx(before)

    def test_update_counter_resets_each_window(self):
        _, atc = self.make()
        atc.on_estimate(node_update_budget=4.0)
        for _ in range(10):
            atc.on_update_sent()
        atc.end_window()
        widened = atc.delta_percent("temperature")
        atc.end_window()  # no updates in this window -> narrows again
        assert atc.delta_percent("temperature") < widened

    def test_rate_of_change_tracked_and_seeds_delta(self):
        _, atc = self.make()
        atc.on_estimate(node_update_budget=10.0)
        for epoch in range(10):
            atc.on_reading("temperature", 20.0 + 0.5 * epoch)
        assert atc.rate_of_change("temperature") > 0.0
        # Seeding kicked in: threshold reflects the observed drift.
        assert atc.delta_percent("temperature") != 3.0

    def test_window_budget_prorates_hourly_budget(self):
        _, atc = self.make()
        assert atc.window_budget() is None
        atc.on_estimate(node_update_budget=20.0)
        assert atc.window_budget() == pytest.approx(5.0)  # 200/50 = 4 windows

    def test_snapshot(self):
        _, atc = self.make()
        assert atc.snapshot() == {"temperature": 3.0}

    def test_absolute_delta_follows_every_percent_change(self):
        """``delta_absolute`` is memoised; each way the percentage moves
        must show in it: a window adjustment, seeding, and a type the
        controller first meets late."""
        cfg, atc = self.make()

        def agrees(stype):
            return atc.delta_absolute(stype) == cfg.absolute_delta(
                stype, atc.delta_percent(stype)
            )

        assert agrees("temperature")
        atc.on_estimate(node_update_budget=4.0)
        for _ in range(20):
            atc.on_update_sent()
        atc.end_window()  # over budget: factor > 1
        assert atc.delta_percent("temperature") != 3.0 and agrees("temperature")
        widened = atc.delta_percent("temperature")
        atc.end_window()  # nothing sent: factor < 1
        assert atc.delta_percent("temperature") < widened and agrees("temperature")

        # A type first seen late starts at the initial threshold.
        assert agrees("humidity")
        assert atc.delta_percent("humidity") == cfg.atc_initial_delta_percent
        # Seeding sets it from the observed drift.
        for epoch in range(5):
            atc.on_reading("humidity", 50.0 + 2.0 * epoch)
        assert atc._seeded.get("humidity")
        assert atc.delta_percent("humidity") != cfg.atc_initial_delta_percent
        assert agrees("humidity")
        atc.end_window()
        assert agrees("humidity") and agrees("temperature")
