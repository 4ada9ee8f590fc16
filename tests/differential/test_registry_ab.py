"""Production-vs-reference A/B over a representative registry slice.

One granular test per scenario (serial, in-process, per-observable diffs)
plus a batch-level run of the production path through
:class:`BatchRunner` at 1 and 4 workers, whose fingerprints must equal
the in-process reference arm's, and whose warm-cache re-run executes
zero trials -- the same contract the CI ``differential`` job drives.
"""

from __future__ import annotations

import pytest

from repro.experiments.batch import BatchRunner, TrialSpec
from repro.scenarios.registry import build_config

from tests.differential.abharness import assert_bit_identical, run_arm

#: (scenario, epochs): epochs are scaled to keep each arm in the seconds
#: range while still crossing several ATC windows / churn cycles; the
#: 500-node cells run shorter because their build dominates.  The two
#: mobility cells cover re-links, which keep the columnar rows; the lossy
#: cell covers loss draws at delivery and frame beacons on both arms.
REGISTRY_SLICE = (
    ("static-paper", 300),
    ("harsh-mixed", 300),
    ("scale-500", 60),
    ("energy-tiered", 300),
    ("mobile-40", 300),
    ("scale-500-mobile", 40),
    ("static-paper channel_loss=0.2", 300),
)

#: Slice cells that change a field of their registry scenario, as a
#: preset's sweep point does: cell -> (scenario, changed fields).
SWEPT = {"static-paper channel_loss=0.2": ("static-paper", {"channel_loss": 0.2})}


@pytest.mark.parametrize("name,epochs", REGISTRY_SLICE, ids=lambda v: str(v))
def test_registry_scenario_bit_identical(name, epochs):
    """Fingerprint, ledger, and accuracy-series equality per scenario."""
    scenario, changes = SWEPT.get(name, (name, {}))
    config = build_config(scenario, num_epochs=epochs).replace(**changes)
    assert_bit_identical(config, context=name)


class TestWorkerInvariance:
    """The A/B suite must hold at 1 and 4 workers, cache included.

    The reference arm runs in process (its patches do not reach worker
    processes); the production arm runs through the batch runner.
    """

    SCENARIOS = (("static-paper", 200), ("harsh-mixed", 200))

    def _specs(self):
        return [
            TrialSpec(label=name, config=build_config(name, num_epochs=epochs))
            for name, epochs in self.SCENARIOS
        ]

    @pytest.fixture(scope="class")
    def reference_prints(self):
        return [
            run_arm(spec.config, reference=True).fingerprint()
            for spec in self._specs()
        ]

    @pytest.mark.parametrize("workers", [1, 4])
    def test_arms_agree_at_any_worker_count(
        self, workers, tmp_path, reference_prints
    ):
        runner = BatchRunner(
            max_workers=workers,
            executor="process",
            cache_dir=tmp_path / f"w{workers}",
        )
        results = runner.run(self._specs())
        prints = [r.fingerprint() for r in results]
        assert prints == reference_prints

        # Warm-cache re-run: served entirely from the cache, bit-identical.
        again = runner.run(self._specs())
        assert runner.last_stats.executed == 0
        assert all(r.from_cache for r in again)
        assert [r.fingerprint() for r in again] == prints


def test_repeated_columnar_runs_reproduce():
    """The fast path is deterministic run-to-run, not just brute-equal."""
    cfg = build_config("static-paper", num_epochs=200)
    assert run_arm(cfg).fingerprint() == run_arm(cfg).fingerprint()
