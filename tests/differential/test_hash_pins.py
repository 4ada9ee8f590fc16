"""Cache-identity pins across the deletion of the epoch-tick switch.

``ExperimentConfig`` once carried an omit-when-unset strategy flag that
chose between the columnar tick and the per-node reference loop.  It was
left out of the canonical hash payload while unset, so every hashed
config's payload already matched the payload without it: deleting the
field needs no ``HASH_RETIRED`` entry and moves no key.  These pins hold
the golden hashes, refuse the deleted field, and check that the
reference arm of the differential harness measures what production does
under the golden key.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments.batch import TrialSpec, _canonical, config_hash
from repro.experiments.config import ExperimentConfig
from repro.scenarios import static
from repro.scenarios.static import small_network

# Same golden values tests/scenarios/test_registry_and_runner.py pins:
# computed before the scenario subsystem existed, and re-pinned once when
# ``slots_per_frame`` left the canonical payload.
GOLDEN_DEFAULT_HASH = "ab4e5e80b500fe5c87a5"
GOLDEN_PAPER_HASH = "c006bc9eb2b4fd852c7b"
GOLDEN_SMALL_KEY = "beb510ed361d90b02339"


class TestTickMethodHashContract:
    def test_unset_flag_preserves_golden_hashes(self):
        assert config_hash(ExperimentConfig()) == GOLDEN_DEFAULT_HASH
        assert config_hash(static.paper_network()) == GOLDEN_PAPER_HASH
        spec = TrialSpec(
            label="golden", config=small_network(num_nodes=10, num_epochs=80)
        )
        assert spec.key == GOLDEN_SMALL_KEY

    def test_unset_flag_absent_from_canonical_payload(self):
        """A default config's payload is its hashed live fields, in
        declaration order, then the retired ones: unset omit-when-unset
        fields and deleted fields without a retired value are absent."""
        payload = _canonical(ExperimentConfig())
        live = [
            f.name
            for f in dataclasses.fields(ExperimentConfig)
            if f.name not in ExperimentConfig.HASH_EXCLUDE
            and f.name not in ExperimentConfig.HASH_OMIT_WHEN_UNSET
        ]
        retired = [name for name, _ in ExperimentConfig.HASH_RETIRED]
        assert list(payload) == live + retired

    def test_invalid_strategy_rejected(self):
        """The deleted switch fails loudly, whatever its value, and left
        nothing behind in the hash contract."""
        for value in (None, "periodic", "columnar"):
            with pytest.raises(TypeError, match="tick_method"):
                ExperimentConfig(tick_method=value)
        assert "tick_method" not in ExperimentConfig.HASH_OMIT_WHEN_UNSET
        assert "tick_method" not in dict(ExperimentConfig.HASH_RETIRED)
        assert "tick_method" not in _canonical(ExperimentConfig())


def test_reference_and_production_share_the_golden_key():
    """The differential harness's two arms run one spec: the golden key,
    and one fingerprint whichever tick and beacon path ran it."""
    from tests.differential.abharness import run_arm

    cfg = small_network(num_nodes=10, num_epochs=80)
    production = run_arm(cfg)
    reference = run_arm(cfg, reference=True)
    assert production.spec.key == reference.spec.key == GOLDEN_SMALL_KEY
    assert reference.fingerprint() == production.fingerprint()
