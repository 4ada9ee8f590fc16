"""Campaign expansion against the per-replicate expansion it replaced.

:meth:`CampaignSpec.trial_specs` builds one config per cell, shares it
with the cell's replicates and canonicalises it once.
:func:`tests.differential.reference.reference_trial_specs` builds every
replicate as a ``TrialSpec(...)`` of its own deep copy.  Both must give
the same labels, groups, tags and keys, and each spec's canonical JSON
must be the JSON of its own config, which its key digests.  Covered:
every preset at 3 replicates, the campaigns of the repository
benchmark's workloads, and every registry scenario under ``dirq``,
``atc`` and ``flooding`` with a ``target_coverage`` sweep.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from perfbench.workloads import WORKLOADS
from repro.experiments.batch import _canonical, config_hash
from repro.experiments.campaign import PRESETS, CampaignSpec, preset
from repro.scenarios.registry import scenario_names

from .reference import reference_trial_specs


def assert_expands_like_the_reference(campaign: CampaignSpec) -> None:
    specs = campaign.trial_specs()
    reference = reference_trial_specs(campaign)
    assert len(specs) == len(reference) == campaign.total_trials
    for spec, oracle in zip(specs, reference):
        assert (spec.label, spec.group, spec.tags, spec.key) == (
            oracle.label,
            oracle.group,
            oracle.tags,
            oracle.key,
        )
        assert spec.config == oracle.config
        text = json.dumps(
            _canonical(spec.config), sort_keys=True, separators=(",", ":")
        )
        assert spec.config_json == text == oracle.config_json
        assert spec.key == hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]
        assert spec.key == config_hash(oracle.config)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_every_preset_at_three_replicates(name):
    assert_expands_like_the_reference(preset(name, replicates=3))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_benchmark_workload(name):
    assert_expands_like_the_reference(WORKLOADS[name].campaign("oracle", 7))


def test_every_scenario_under_every_protocol_with_a_sweep():
    assert_expands_like_the_reference(
        CampaignSpec(
            name="registry",
            scenarios=tuple(scenario_names()),
            protocols=("dirq", "atc", "flooding"),
            replicates=2,
            num_epochs=200,
            sweep={"target_coverage": (0.2, 0.4)},
        )
    )
