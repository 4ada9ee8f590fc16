"""Cache-identity pins for ``tick_method``.

The flag follows the HASH_OMIT_WHEN_UNSET convention: while ``None`` it
is absent from the canonical hash payload (every pre-existing cache key,
golden hash, and fingerprint survives its introduction); once pinned to
a strategy it enters the payload, so the brute and columnar arms of an
A/B sweep can never alias in the result cache.  These pins, plus the
reprolint corpus entry ``bad_rl202_strategy_flag_default.py`` and the
repo-wide RL210 dynamic hash-coverage check, are what keep the field
from silently entering (or silently leaving) ``_canonical``.
"""

from __future__ import annotations

import pytest

from repro.experiments.batch import TrialSpec, _canonical, config_hash
from repro.experiments.config import ExperimentConfig
from repro.scenarios import static
from repro.scenarios.static import small_network

# Same golden values tests/scenarios/test_registry_and_runner.py pins:
# computed before tick_method (and the scenario subsystem) existed, and
# re-pinned once when ``slots_per_frame`` left the canonical payload.
GOLDEN_DEFAULT_HASH = "ab4e5e80b500fe5c87a5"
GOLDEN_PAPER_HASH = "c006bc9eb2b4fd852c7b"
GOLDEN_SMALL_KEY = "beb510ed361d90b02339"


class TestTickMethodHashContract:
    def test_flag_is_registered_omit_when_unset(self):
        assert "tick_method" in ExperimentConfig.HASH_OMIT_WHEN_UNSET

    def test_unset_flag_preserves_golden_hashes(self):
        assert config_hash(ExperimentConfig()) == GOLDEN_DEFAULT_HASH
        assert config_hash(static.paper_network()) == GOLDEN_PAPER_HASH
        spec = TrialSpec(
            label="golden", config=small_network(num_nodes=10, num_epochs=80)
        )
        assert spec.key == GOLDEN_SMALL_KEY

    def test_unset_flag_absent_from_canonical_payload(self):
        payload = _canonical(ExperimentConfig())
        assert "tick_method" not in payload

    def test_pinned_flag_enters_canonical_payload(self):
        for method in ("periodic", "columnar"):
            payload = _canonical(ExperimentConfig(tick_method=method))
            assert payload["tick_method"] == method

    def test_each_strategy_hashes_distinctly(self):
        hashes = {
            method: config_hash(ExperimentConfig(tick_method=method))
            for method in (None, "periodic", "columnar")
        }
        assert hashes[None] == GOLDEN_DEFAULT_HASH
        assert len(set(hashes.values())) == 3

    def test_invalid_strategy_rejected(self):
        with pytest.raises(ValueError, match="tick_method"):
            ExperimentConfig(tick_method="vectorised")


def test_periodic_is_an_explicit_brute_pin():
    """An unset tick_method runs the columnar tick: it measures the same
    as "columnar" and keeps its golden key.  tick_method="periodic" pins
    the per-node reference loop: same measurements under a distinct key."""
    from tests.differential.abharness import run_arm

    cfg = small_network(num_nodes=10, num_epochs=80)
    unset = run_arm(cfg, None)
    columnar = run_arm(cfg, "columnar")
    periodic = run_arm(cfg, "periodic")
    assert unset.spec.key == GOLDEN_SMALL_KEY
    assert unset.fingerprint(include_key=False) == columnar.fingerprint(
        include_key=False
    )
    assert periodic.fingerprint(include_key=False) == unset.fingerprint(
        include_key=False
    )
    assert len({unset.spec.key, columnar.spec.key, periodic.spec.key}) == 3
