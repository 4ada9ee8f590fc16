"""Unit tests for the scenario spec dataclasses and runtime models."""

import math

import numpy as np
import pytest

from repro.scenarios.models import (
    ChurnModel,
    EnergyProfile,
    MobilityModel,
    TrafficProfile,
    rebuild_spanning_tree,
)
from repro.scenarios.spec import (
    EVENT_ACTIVATE,
    EVENT_KILL,
    ChurnConfig,
    EnergyConfig,
    MobilityConfig,
    ScenarioConfig,
    TrafficConfig,
)
from tests.helpers import line_topology


def rng(seed: int = 7) -> np.random.Generator:
    return np.random.default_rng(seed)


class TestSpecValidation:
    def test_churn_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ChurnConfig(death_rate=-0.1)
        with pytest.raises(ValueError):
            ChurnConfig(start_epoch=10, end_epoch=10)
        with pytest.raises(ValueError):
            ChurnConfig(revive_after=0)

    def test_mobility_rejects_bad_values(self):
        with pytest.raises(ValueError):
            MobilityConfig(speed_min=2.0, speed_max=1.0)
        with pytest.raises(ValueError):
            MobilityConfig(relink_period=0)
        with pytest.raises(ValueError):
            MobilityConfig(mobile_fraction=0.0)

    def test_traffic_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TrafficConfig(mode="steady")
        with pytest.raises(ValueError):
            TrafficConfig(mode="bursty", queries_per_burst=0)
        with pytest.raises(ValueError):
            TrafficConfig(mode="diurnal", peak_to_trough=0.5)
        with pytest.raises(ValueError):
            TrafficConfig(mode="ramp", coverage_start=0.2)  # end missing

    def test_energy_rejects_bad_values(self):
        with pytest.raises(ValueError):
            EnergyConfig(distribution="gaussian")
        with pytest.raises(ValueError):
            EnergyConfig(capacity_low=10.0, capacity_high=5.0)
        with pytest.raises(ValueError):
            EnergyConfig(check_period=0)

    def test_scenario_requires_a_dimension(self):
        with pytest.raises(ValueError):
            ScenarioConfig(name="empty")


class TestChurnModel:
    def test_deterministic_per_seed(self):
        cfg = ChurnConfig(death_rate=0.05, max_deaths=10)
        nodes = list(range(20))
        a = ChurnModel(cfg).events(nodes, 0, 400, rng(3))
        b = ChurnModel(cfg).events(nodes, 0, 400, rng(3))
        c = ChurnModel(cfg).events(nodes, 0, 400, rng(4))
        assert a == b
        assert a != c

    def test_never_kills_the_root(self):
        cfg = ChurnConfig(death_rate=0.5)
        events = ChurnModel(cfg).events(list(range(5)), 0, 200, rng())
        assert all(nid != 0 for _, _, nid in events)

    def test_respects_max_deaths_and_window(self):
        cfg = ChurnConfig(
            death_rate=0.5, start_epoch=50, end_epoch=150, max_deaths=3
        )
        events = ChurnModel(cfg).events(list(range(30)), 0, 400, rng())
        kills = [e for e in events if e[1] == EVENT_KILL]
        assert len(kills) == 3
        assert all(50 <= e[0] < 150 for e in kills)

    def test_kills_are_unique_without_revival(self):
        cfg = ChurnConfig(death_rate=0.3)
        events = ChurnModel(cfg).events(list(range(10)), 0, 300, rng())
        killed = [nid for _, kind, nid in events if kind == EVENT_KILL]
        assert len(killed) == len(set(killed))

    def test_revive_after_schedules_activations(self):
        cfg = ChurnConfig(death_rate=0.1, revive_after=40, max_deaths=5)
        events = ChurnModel(cfg).events(list(range(12)), 0, 1000, rng())
        deaths = {
            (epoch, nid) for epoch, kind, nid in events if kind == EVENT_KILL
        }
        revivals = {
            (epoch, nid) for epoch, kind, nid in events if kind == EVENT_ACTIVATE
        }
        for epoch, nid in deaths:
            if epoch + 40 < 1000:
                assert (epoch + 40, nid) in revivals

    def test_events_sorted_by_epoch(self):
        cfg = ChurnConfig(death_rate=0.2, revive_after=10)
        events = ChurnModel(cfg).events(list(range(15)), 0, 300, rng())
        epochs = [e[0] for e in events]
        assert epochs == sorted(epochs)

    def test_zero_rate_is_empty(self):
        cfg = ChurnConfig(death_rate=0.0)
        assert ChurnModel(cfg).events(list(range(5)), 0, 100, rng()) == []


class TestTrafficProfile:
    def test_bursty_counts(self):
        profile = TrafficProfile(
            TrafficConfig(
                mode="bursty",
                burst_every=100,
                queries_per_burst=5,
                background_period=0,
            )
        )
        schedule = profile.schedule(400, 400, rng())
        assert schedule == sorted(schedule)
        # Bursts at 100, 200, 300: five queries each.
        assert len(schedule) == 15
        assert schedule.count(100) == 5

    def test_bursty_with_background(self):
        profile = TrafficProfile(
            TrafficConfig(
                mode="bursty",
                burst_every=200,
                queries_per_burst=3,
                background_period=50,
            )
        )
        schedule = profile.schedule(400, 400, rng())
        # Background: every 50 epochs from the warm-up start at 20.
        assert 20 in schedule and 70 in schedule
        assert schedule.count(200) >= 3

    def test_ramp_is_deterministic_and_densifies(self):
        profile = TrafficProfile(
            TrafficConfig(mode="ramp", period_start=50, period_end=10)
        )
        a = profile.schedule(1000, 1000, rng(1))
        b = profile.schedule(1000, 1000, rng(2))
        assert a == b  # no randomness consumed
        first_half = sum(1 for e in a if e < 500)
        second_half = sum(1 for e in a if e >= 500)
        assert second_half > first_half

    def test_diurnal_deterministic_per_seed(self):
        profile = TrafficProfile(TrafficConfig(mode="diurnal", mean_rate=0.1))
        assert profile.schedule(500, 250, rng(9)) == profile.schedule(
            500, 250, rng(9)
        )

    def test_coverage_ramp(self):
        profile = TrafficProfile(
            TrafficConfig(mode="ramp", coverage_start=0.2, coverage_end=0.6)
        )
        assert profile.coverage_at(0, 101, base=0.4) == pytest.approx(0.2)
        assert profile.coverage_at(100, 101, base=0.4) == pytest.approx(0.6)

    def test_coverage_defaults_to_base(self):
        profile = TrafficProfile(TrafficConfig(mode="bursty"))
        assert profile.coverage_at(10, 100, base=0.4) == 0.4


class TestEnergyProfile:
    def test_root_budget_is_infinite(self):
        caps = EnergyProfile(EnergyConfig()).capacities(range(10), 0, rng())
        assert caps[0] == float("inf")

    def test_uniform_within_bounds(self):
        cfg = EnergyConfig(
            distribution="uniform", capacity_low=100.0, capacity_high=200.0
        )
        caps = EnergyProfile(cfg).capacities(range(50), 0, rng())
        others = [caps[n] for n in range(1, 50)]
        assert all(100.0 <= c <= 200.0 for c in others)

    def test_two_tier_values(self):
        cfg = EnergyConfig(
            distribution="two_tier",
            capacity_low=50.0,
            capacity_high=500.0,
            fraction_low=0.5,
        )
        caps = EnergyProfile(cfg).capacities(range(200), 0, rng())
        others = [caps[n] for n in range(1, 200)]
        assert set(others) == {50.0, 500.0}
        low_share = sum(1 for c in others if c == 50.0) / len(others)
        assert 0.35 < low_share < 0.65

    def test_lognormal_positive_and_deterministic(self):
        cfg = EnergyConfig(distribution="lognormal", median_capacity=100.0)
        a = EnergyProfile(cfg).capacities(range(20), 0, rng(5))
        b = EnergyProfile(cfg).capacities(range(20), 0, rng(5))
        assert a == b
        assert all(c > 0 for c in a.values())

    def test_batteries_match_capacities(self):
        cfg = EnergyConfig(capacity_low=10.0, capacity_high=10.0)
        batteries = EnergyProfile(cfg).batteries(range(4), 0, rng())
        assert batteries[1].capacity == 10.0
        assert not batteries[1].depleted


class TestMobilityModel:
    def make(self, fraction=1.0, seed=11, n=10):
        model = MobilityModel(
            MobilityConfig(
                mobile_fraction=fraction, speed_min=1.0, speed_max=2.0,
                relink_period=10,
            ),
            area_size=100.0,
        )
        positions = {i: (float(i), float(i)) for i in range(n)}
        model.initialise(positions, root_id=0, rng=rng(seed))
        return model

    def test_root_never_moves(self):
        model = self.make()
        assert 0 not in model.mobile
        model.step()
        assert model.positions[0] == (0.0, 0.0)

    def test_fraction_selects_count(self):
        model = self.make(fraction=0.4, n=11)
        assert len(model.mobile) == 4  # 40 % of the 10 non-root nodes

    def test_positions_stay_in_area(self):
        model = self.make()
        for _ in range(50):
            model.step()
        for x, y in model.positions.values():
            assert 0.0 <= x <= 100.0 and 0.0 <= y <= 100.0

    def test_step_moves_at_most_speed_times_period(self):
        model = self.make()
        before = dict(model.positions)
        model.step()
        for nid in model.mobile:
            dist = math.dist(before[nid], model.positions[nid])
            assert dist <= 2.0 * 10 + 1e-9

    def test_deterministic_per_seed(self):
        a, b = self.make(seed=3), self.make(seed=3)
        for _ in range(5):
            assert a.step() == b.step()

    def test_step_requires_initialise(self):
        model = MobilityModel(MobilityConfig(), area_size=100.0)
        with pytest.raises(RuntimeError):
            model.step()


class TestRebuildSpanningTree:
    def test_full_tree_on_connected_topology(self):
        topo = line_topology(5)
        tree = rebuild_spanning_tree(topo, set(range(5)), root=0)
        assert tree.node_ids == [0, 1, 2, 3, 4]
        assert tree.parent_of(3) == 2

    def test_partitioned_nodes_are_dropped(self):
        topo = line_topology(5)
        # Node 2 dead: 3 and 4 cannot reach the root.
        tree = rebuild_spanning_tree(topo, {0, 1, 3, 4}, root=0)
        assert tree.node_ids == [0, 1]

    def test_deterministic_parent_choice(self):
        topo = line_topology(4)
        a = rebuild_spanning_tree(topo, set(range(4)), root=0)
        b = rebuild_spanning_tree(topo, set(range(4)), root=0)
        assert a.parent == b.parent
