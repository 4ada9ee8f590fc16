"""Columnar-vs-brute A/B over a representative registry slice.

One granular test per scenario (serial, in-process, per-observable diffs)
plus a batch-level run through :class:`BatchRunner` at 1 and 4 workers
that pins fingerprints across worker counts and asserts the warm-cache
re-run executes zero trials -- the same contract the CI ``differential``
job drives.
"""

from __future__ import annotations

import pytest

from repro.experiments.batch import BatchRunner, TrialSpec
from repro.scenarios.registry import build_config

from tests.differential.abharness import assert_bit_identical, run_arm

#: (scenario, epochs): epochs are scaled to keep each arm in the seconds
#: range while still crossing several ATC windows / churn cycles; the
#: 500-node cells run shorter because their build dominates.  The two
#: mobility cells cover re-links, which keep the columnar rows.
REGISTRY_SLICE = (
    ("static-paper", 300),
    ("harsh-mixed", 300),
    ("scale-500", 60),
    ("energy-tiered", 300),
    ("mobile-40", 300),
    ("scale-500-mobile", 40),
)


@pytest.mark.parametrize("name,epochs", REGISTRY_SLICE, ids=lambda v: str(v))
def test_registry_scenario_bit_identical(name, epochs):
    """Fingerprint, ledger, and accuracy-series equality per scenario."""
    assert_bit_identical(build_config(name, num_epochs=epochs), context=name)


class TestWorkerInvariance:
    """The A/B suite must hold at 1 and 4 workers, cache included."""

    SCENARIOS = (("static-paper", 200), ("harsh-mixed", 200))

    def _specs(self):
        specs = []
        for name, epochs in self.SCENARIOS:
            cfg = build_config(name, num_epochs=epochs)
            for arm in ("periodic", "columnar"):
                specs.append(
                    TrialSpec(
                        label=f"{name}[{arm}]",
                        config=cfg.replace(tick_method=arm),
                    )
                )
        return specs

    @pytest.mark.parametrize("workers", [1, 4])
    def test_arms_agree_at_any_worker_count(self, workers, tmp_path):
        runner = BatchRunner(
            max_workers=workers,
            executor="process",
            cache_dir=tmp_path / f"w{workers}",
        )
        results = runner.run(self._specs())
        prints = [r.fingerprint(include_key=False) for r in results]
        # Results arrive in spec order: (brute, columnar) per scenario.
        for i in range(0, len(prints), 2):
            assert prints[i] == prints[i + 1], results[i].label

        # Warm-cache re-run: served entirely from the cache, bit-identical.
        again = runner.run(self._specs())
        assert runner.last_stats.executed == 0
        assert all(r.from_cache for r in again)
        assert [r.fingerprint(include_key=False) for r in again] == prints

    def test_cache_does_not_alias_the_two_arms(self, tmp_path):
        """The arms must hash to *different* cache keys (tick_method set
        enters the canonical payload), so an A/B sweep can never serve one
        arm's cached result to the other."""
        specs = self._specs()
        keys = [s.key for s in specs]
        assert len(set(keys)) == len(keys)


def test_repeated_columnar_runs_reproduce():
    """The fast path is deterministic run-to-run, not just brute-equal."""
    cfg = build_config("static-paper", num_epochs=200)
    first = run_arm(cfg, "columnar").fingerprint(include_key=False)
    second = run_arm(cfg, "columnar").fingerprint(include_key=False)
    assert first == second
