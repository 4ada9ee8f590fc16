"""``_canonical`` against the per-value walk it replaced.

Every registry scenario under every protocol variant, and every cell of
every preset, must reduce to the same payload -- the same structure, key
order included, and so the same text :func:`config_hash` digests -- under
the production walk and :func:`tests.differential.reference.canonical_walk`.
Every dataclass that declares ``HASH_RETIRED`` keeps each deleted field in
that payload at its one value, and refuses it as an argument.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import pkgutil

import pytest

import repro
from repro.core.config import DirQConfig
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


#: Every dataclass that declares ``HASH_RETIRED``.
RETIRING = (ExperimentConfig, DirQConfig)


def test_every_retiring_dataclass_is_checked():
    found = set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        for obj in vars(importlib.import_module(info.name)).values():
            if (
                isinstance(obj, type)
                and dataclasses.is_dataclass(obj)
                and "HASH_RETIRED" in vars(obj)
            ):
                found.add(obj)
    assert found == set(RETIRING)


def test_retired_fields_keep_their_one_value():
    """Deleted fields stay in the payload at the value every hashed config
    had, type included, so no key moves; a config that passes one is
    refused; and none is also a live field, which ``payload.update``
    would overwrite, aliasing distinct configs onto one key."""
    assert dict(ExperimentConfig.HASH_RETIRED) == {
        "send_responses": False,
        "trace": False,
    }
    assert dict(DirQConfig.HASH_RETIRED) == {
        "query_payload_bytes": 24,
        "update_payload_bytes": 20,
        "estimate_payload_bytes": 16,
    }
    for cls in RETIRING:
        payload = _canonical(cls())
        live = {f.name for f in dataclasses.fields(cls)}
        for name, value in cls.HASH_RETIRED:
            case = f"{cls.__name__}.{name}"
            assert type(payload[name]) is type(value), case
            assert payload[name] == value, case
            assert name not in live, case
            with pytest.raises(TypeError, match=name):
                cls(**{name: value})
