"""``_canonical`` against the per-value walk it replaced.

Every registry scenario under every protocol variant, and every cell of
every preset, must reduce to the same payload -- the same structure, key
order included, and so the same text :func:`config_hash` digests -- under
the production walk and :func:`tests.differential.reference.canonical_walk`.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.batch import _canonical
from repro.experiments.campaign import PRESETS, PROTOCOLS, preset
from repro.experiments.config import ExperimentConfig
from repro.scenarios.registry import DEFAULT_SCENARIO_EPOCHS, get_scenario, scenario_names

from .reference import canonical_walk


def assert_same_payload(config) -> None:
    assert json.dumps(_canonical(config)) == json.dumps(canonical_walk(config))


@pytest.mark.parametrize("scenario", scenario_names())
def test_every_scenario_under_every_protocol(scenario):
    base = get_scenario(scenario).factory(DEFAULT_SCENARIO_EPOCHS, 1)
    for transform in PROTOCOLS.values():
        assert_same_payload(transform(base))


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_every_preset_cell(name):
    for trial in preset(name).trial_specs():
        assert_same_payload(trial.config)


def test_excluded_and_pinned_fields():
    assert_same_payload(ExperimentConfig(instrument="full"))
    assert_same_payload(ExperimentConfig(phenomena_method="lowrank"))


def test_retired_fields_keep_their_one_value():
    """Deleted fields stay in the payload at the value every hashed config
    had, so no key moves; a config that passes one is refused."""
    payload = _canonical(ExperimentConfig())
    assert payload["send_responses"] is False
    assert payload["trace"] is False
    for name, _ in ExperimentConfig.HASH_RETIRED:
        with pytest.raises(TypeError):
            ExperimentConfig(**{name: False})
