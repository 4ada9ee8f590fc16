"""Large-N scaling scenarios: registry entries, hash compatibility,
fast-vs-brute bit identity, and 500-node determinism.

Three promises are pinned here:

* the ``phenomena_method`` config field is omitted from the hash when
  unset, so every pre-existing cache key and fingerprint survives the
  scaling work unchanged, and the deleted ``tree_repair`` and
  ``neighbor_method`` fields fail loudly;
* the spatial-hash fast path is an implementation detail -- a run of the
  same trial through the all-pairs oracles of
  ``tests/differential/reference.py`` yields bit-identical measurements;
* 500-node trials with mobility and churn are deterministic across
  repetition and across BatchRunner worker counts.
"""

from __future__ import annotations

import math

import pytest

from repro.experiments.batch import BatchRunner, TrialSpec, config_hash
from repro.experiments.config import ExperimentConfig
from repro.scenarios.registry import build_config, scenario_names
from repro.scenarios.static import scaled_network

from ..differential.reference import brute_network
from .test_registry_and_runner import (
    GOLDEN_DEFAULT_HASH,
    GOLDEN_SCENARIO_HASHES,
)

#: Epoch budget for the 500-node determinism trials: several query and
#: re-link periods while keeping each trial around a second.
SCALE_TEST_EPOCHS = 40


def serial_runner() -> BatchRunner:
    return BatchRunner(max_workers=1)


class TestScaledNetwork:
    def test_density_preserving_area(self):
        base = scaled_network(50)
        assert base.area_size == pytest.approx(100.0)
        big = scaled_network(5000)
        assert big.area_size == pytest.approx(100.0 * math.sqrt(100.0))
        assert big.comm_range == base.comm_range == 30.0

    def test_rejects_degenerate_sizes(self):
        with pytest.raises(ValueError, match="num_nodes"):
            scaled_network(1)

    def test_registry_entries_exist_and_build(self):
        names = scenario_names()
        for name, nodes in [
            ("scale-500", 500),
            ("scale-500-mobile", 500),
            ("scale-500-churn", 500),
            ("scale-5000", 5000),
        ]:
            assert name in names
            cfg = build_config(name, num_epochs=100, seed=3)
            assert cfg.num_nodes == nodes
            assert cfg.num_epochs == 100 and cfg.seed == 3

    def test_scale_5000_uses_lowrank_phenomena(self):
        cfg = build_config("scale-5000", num_epochs=100, seed=1)
        assert cfg.phenomena_method == "lowrank"
        # The 500-node tier keeps the exact field (still tractable).
        assert build_config("scale-500", 100, 1).phenomena_method is None


class TestConfigFieldValidation:
    @pytest.mark.parametrize(
        "field,good,bad",
        [
            ("phenomena_method", "lowrank", "sparse"),
        ],
    )
    def test_strategy_fields_validated(self, field, good, bad):
        ExperimentConfig(**{field: good})  # accepted
        ExperimentConfig(**{field: None})  # accepted (the default)
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(**{field: bad})

    def test_deleted_tree_repair_field_fails_loudly(self):
        # One tree rule replaced the strategy flag; a config that still
        # pins it must not silently run (or hash) as something else.
        with pytest.raises(TypeError, match="tree_repair"):
            ExperimentConfig(tree_repair="full")

    def test_deleted_neighbor_method_field_fails_loudly(self):
        # Connectivity is derived one way; all-pairs is a test oracle.
        with pytest.raises(TypeError, match="neighbor_method"):
            ExperimentConfig(neighbor_method="brute")


class TestHashCompatibility:
    def test_unset_strategy_fields_leave_hashes_unchanged(self):
        assert config_hash(ExperimentConfig()) == GOLDEN_DEFAULT_HASH
        for name, golden in GOLDEN_SCENARIO_HASHES.items():
            assert config_hash(build_config(name, 400, 1)) == golden, name

    def test_set_strategy_fields_enter_the_hash(self):
        base = ExperimentConfig()
        assert config_hash(base.replace(phenomena_method="lowrank")) != (
            config_hash(base)
        )
        # An explicit default hashes differently from unset too:
        # None means "the default, whatever it becomes", a set value is a
        # recorded experimental choice.
        assert config_hash(base.replace(phenomena_method="exact")) != (
            config_hash(base)
        )


class TestFastBrutePathIdentity:
    def test_mobile_trial_fingerprints_match(self, monkeypatch):
        spec = TrialSpec(
            label="ab",
            config=build_config(
                "scale-500-mobile", num_epochs=SCALE_TEST_EPOCHS, seed=1
            ),
        )
        (fast,) = serial_runner().run([spec])
        calls = brute_network(monkeypatch)
        (brute,) = serial_runner().run([spec])
        # The brute arm built the deployment and every re-link all-pairs.
        assert calls["graph"] >= 1 and calls["delta"] >= 1
        assert fast.fingerprint() == brute.fingerprint()


class TestLargeNDeterminism:
    @pytest.fixture(scope="class")
    def specs(self):
        return [
            TrialSpec(
                label=name,
                config=build_config(
                    name, num_epochs=SCALE_TEST_EPOCHS, seed=2
                ),
            )
            for name in ("scale-500-mobile", "scale-500-churn")
        ]

    def test_repeated_runs_are_bit_identical(self, specs):
        first = [r.fingerprint() for r in serial_runner().run(specs)]
        second = [r.fingerprint() for r in serial_runner().run(specs)]
        assert first == second

    def test_worker_count_does_not_change_results(self, specs):
        serial = [r.fingerprint() for r in serial_runner().run(specs)]
        parallel = [
            r.fingerprint()
            for r in BatchRunner(max_workers=4).run(specs)
        ]
        assert serial == parallel
