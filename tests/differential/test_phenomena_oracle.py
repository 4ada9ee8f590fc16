"""The phenomena generator against its one-type-at-a-time oracle.

:func:`repro.sensors.phenomena.generate_fields` shares one squared-distance
matrix and one diurnal sine between a build's sensor types and runs one
NumPy AR(1) loop over all of them; :func:`reference.lfilter_fields` builds
each type on its own and filters it with ``scipy.signal.lfilter``.  Every
reading must match bit for bit, compared as ``int64`` views so that even
the sign of a zero counts.
"""

import copy

import numpy as np
import pytest

from repro.experiments import runner as runner_module
from repro.scenarios.registry import build_config, scenario_names
from repro.sensors.dataset import SensorDataset
from repro.sensors.phenomena import PhenomenonField, generate_fields
from repro.sensors.types import SensorTypeSpec, default_type_specs

from .reference import lfilter_fields

pytest.importorskip("scipy.signal")


class _Captured(Exception):
    pass


def dataset_arguments(config, monkeypatch) -> dict:
    """The keyword arguments the runner passes to ``SensorDataset.generate``.

    The build stops at that call, so the captured generator has drawn
    nothing yet.
    """
    captured = {}

    class Spy:
        @staticmethod
        def generate(**kwargs):
            captured.update(kwargs)
            raise _Captured

    with monkeypatch.context() as patch:
        patch.setattr(runner_module, "SensorDataset", Spy)
        with pytest.raises(_Captured):
            runner_module.ExperimentRunner(config).build()
    return captured


def assert_bit_identical(readings, oracle) -> None:
    assert list(readings) == list(oracle)
    for stype, expected in oracle.items():
        got = readings[stype]
        assert got.shape == expected.shape, stype
        assert np.array_equal(got.view(np.int64), expected.view(np.int64)), stype


def assert_dataset_matches_oracle(config, monkeypatch) -> None:
    args = dataset_arguments(config, monkeypatch)
    rng = args.pop("rng")
    dataset = SensorDataset.generate(rng=copy.deepcopy(rng), **args)
    oracle = lfilter_fields(
        args["specs"],
        args["positions"],
        args["num_epochs"],
        rng=copy.deepcopy(rng),
        epochs_per_day=args["epochs_per_day"],
        spatial_method=args["spatial_method"],
    )
    assert_bit_identical(dataset.readings, oracle)


@pytest.mark.parametrize("num_epochs", [1, 2, 200])
@pytest.mark.parametrize("scenario", scenario_names())
def test_registry_datasets_match_the_oracle(scenario, num_epochs, monkeypatch):
    config = build_config(scenario, num_epochs=num_epochs, seed=1)
    assert_dataset_matches_oracle(config, monkeypatch)


@pytest.mark.parametrize("num_epochs", [1, 2, 200])
def test_lowrank_paper_network_matches_the_oracle(num_epochs, monkeypatch):
    config = build_config("static-paper", num_epochs=num_epochs, seed=3)
    config = config.replace(phenomena_method="lowrank")
    assert_dataset_matches_oracle(config, monkeypatch)


@pytest.mark.parametrize("num_epochs", [1, 2, 200])
def test_phenomena_spec_overrides_match_the_oracle(num_epochs, monkeypatch):
    # A noiseless, slow, widely correlated temperature (the field probes'
    # override) and a pressure without a diurnal cycle.
    overrides = {
        "temperature": SensorTypeSpec(
            name="temperature",
            base_value=20.0,
            spatial_scale=80.0,
            temporal_scale=70_000.0,
            amplitude=2.5,
            diurnal_amplitude=1.0,
            noise_std=0.0,
            full_scale=15.0,
        ),
        "pressure": SensorTypeSpec(
            name="pressure", base_value=1013.0, amplitude=3.0, noise_std=0.1
        ),
    }
    config = build_config("static-paper", num_epochs=num_epochs, seed=2)
    config = config.replace(phenomena_specs=overrides, epochs_per_day=500)
    assert_dataset_matches_oracle(config, monkeypatch)


@pytest.mark.parametrize("spatial_method", ["exact", "lowrank"])
def test_per_type_generators_match_the_oracle(spatial_method):
    specs = default_type_specs()
    positions = np.random.default_rng(4).uniform(0, 100, size=(60, 2))

    def generators():
        return {name: np.random.default_rng(10 + i) for i, name in enumerate(specs)}

    fields = generate_fields(
        specs, positions, 200, rng_for=generators(), spatial_method=spatial_method
    )
    oracle = lfilter_fields(
        specs, positions, 200, rng_for=generators(), spatial_method=spatial_method
    )
    assert_bit_identical(fields, oracle)


@pytest.mark.parametrize("spatial_method", ["exact", "lowrank"])
def test_one_field_matches_the_oracle(spatial_method):
    spec = default_type_specs()["humidity"]
    positions = np.random.default_rng(5).uniform(0, 100, size=(30, 2))
    field = PhenomenonField(
        spec, positions, np.random.default_rng(6), spatial_method=spatial_method
    )
    oracle = lfilter_fields(
        {"humidity": spec},
        positions,
        150,
        rng=np.random.default_rng(6),
        spatial_method=spatial_method,
    )
    assert_bit_identical({"humidity": field.generate(150)}, oracle)
