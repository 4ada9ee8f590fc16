"""Batch-sampling edge cases for the columnar tick.

The columnar pass gathers rows for the *alive* protocol set and rebuilds
on topology change; these tests pin the awkward boundaries: nodes dying
and reviving mid-run (scripted and churn-driven), nodes that mount no
sensor of the queried type, the minimal legal network, and the lowrank
phenomena field (the large-N synthesis path) under columnar reads.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentConfig, TopologyEvent
from repro.scenarios.spec import ChurnConfig, ScenarioConfig
from repro.scenarios.static import small_network
from repro.sensors.types import HUMIDITY, LIGHT, TEMPERATURE

from tests.differential.abharness import assert_bit_identical, run_arm


class TestDeadAndRevivingNodes:
    def test_scripted_kill_and_revive(self):
        """Scripted deaths force a columnar rebuild mid-run; a later
        activation of an initially-dead node forces another."""
        cfg = small_network(num_nodes=14, num_epochs=240).replace(
            initially_dead={13},
            topology_events=[
                TopologyEvent(epoch=60, kind=TopologyEvent.KILL, node_id=5),
                TopologyEvent(epoch=90, kind=TopologyEvent.KILL, node_id=9),
                TopologyEvent(
                    epoch=140, kind=TopologyEvent.ACTIVATE, node_id=13
                ),
            ],
        )
        assert_bit_identical(cfg, context="scripted-kill-revive")

    def test_churn_deaths_with_revival(self):
        """Random churn with revive_after: rows leave and re-enter the
        alive set repeatedly."""
        cfg = small_network(num_nodes=16, num_epochs=260).with_scenario(
            ScenarioConfig(
                name="edge-churn",
                churn=ChurnConfig(death_rate=0.01, revive_after=30),
            )
        )
        assert_bit_identical(cfg, context="churn-revive")


class TestHeterogeneousMounts:
    def test_nodes_without_the_swept_type(self):
        """Some nodes mount no sensor of the queried type: their rows
        simply don't exist for that type's segment, and queries covering
        them must resolve identically."""
        mounts = {
            nid: ([TEMPERATURE, HUMIDITY] if nid % 3 else [LIGHT])
            for nid in range(12)
        }
        cfg = small_network(num_nodes=12, num_epochs=200).replace(
            sensors_per_node=mounts, query_sensor_type=TEMPERATURE
        )
        assert_bit_identical(cfg, context="missing-swept-type")

    def test_random_subset_mounts(self):
        cfg = small_network(num_nodes=14, num_epochs=200).replace(
            sensors_per_node=2, query_sensor_type=None
        )
        assert_bit_identical(cfg, context="k-random-mounts")


class TestMinimalNetworks:
    def test_minimal_two_node_network(self):
        """num_nodes=2 is the smallest legal config (a root plus one
        sensing node): one row per sensor type."""
        cfg = small_network(num_nodes=2, num_epochs=160)
        assert_bit_identical(cfg, context="n=2")

    def test_single_node_network_rejected_in_both_arms(self):
        """n=1 is a config error, not a columnar special case."""
        for method in ("periodic", "columnar"):
            with pytest.raises(ValueError, match="num_nodes"):
                ExperimentConfig(num_nodes=1, tick_method=method)


class TestPhenomenaField:
    def test_lowrank_field_bit_identical_under_columnar(self):
        """The lowrank synthesis draws a different dataset than exact --
        the columnar gather must be bit-identical to brute *within* each
        synthesis method."""
        cfg = small_network(num_nodes=16, num_epochs=200).replace(
            phenomena_method="lowrank"
        )
        assert_bit_identical(cfg, context="lowrank")

    def test_exact_field_pinned_explicitly(self):
        cfg = small_network(num_nodes=16, num_epochs=200).replace(
            phenomena_method="exact"
        )
        assert_bit_identical(cfg, context="exact")

    def test_lowrank_and_exact_fields_differ(self):
        """Guard the guard: lowrank is an *approximation*, so the two
        synthesis methods must not silently alias (if they did, the
        lowrank A/B above would not be testing a distinct code path)."""
        exact = run_arm(
            small_network(num_nodes=16, num_epochs=200), "columnar"
        )
        lowrank = run_arm(
            small_network(num_nodes=16, num_epochs=200).replace(
                phenomena_method="lowrank"
            ),
            "columnar",
        )
        assert exact.fingerprint(include_key=False) != lowrank.fingerprint(
            include_key=False
        )
