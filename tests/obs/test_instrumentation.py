"""The observability invariant: instruments never perturb results.

Turning metrics, phase profiling, or tracing on must leave every
``config_hash``, cache key, and ``TrialResult`` fingerprint byte-identical
to the uninstrumented run -- and the telemetry payload itself must be
deterministic across worker counts.
"""

import dataclasses
import json

import pytest

from repro.experiments.batch import (
    HASH_EXEMPT,
    BatchRunner,
    TrialSpec,
    config_hash,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.obs.instrumentation import (
    NULL_INSTRUMENTATION,
    build_instrumentation,
)
from repro.scenarios.registry import build_config
from repro.scenarios.static import smoke_sweep


def instrumented(spec: TrialSpec, instrument) -> TrialSpec:
    return dataclasses.replace(
        spec, config=spec.config.replace(instrument=instrument)
    )


class TestBuildInstrumentation:
    def test_default_is_the_shared_null_handle(self):
        cfg = ExperimentConfig()
        assert build_instrumentation(cfg) is NULL_INSTRUMENTATION

    def test_metrics_mode(self):
        inst = build_instrumentation(ExperimentConfig(instrument="metrics"))
        assert inst.metrics.enabled
        assert not inst.phases.enabled
        assert not inst.tracer.enabled

    def test_full_mode(self):
        inst = build_instrumentation(ExperimentConfig(instrument="full"))
        assert inst.metrics.enabled
        assert inst.phases.enabled
        assert inst.tracer.enabled

    def test_retired_trace_flag_is_rejected(self):
        # The tracer turns on only with instrument="full"; the old flag is
        # a deleted field, so passing it fails like any unknown field.
        with pytest.raises(TypeError):
            ExperimentConfig(trace=True)
        with pytest.raises(TypeError):
            ExperimentConfig().replace(trace=False)

    def test_config_rejects_unknown_instrument(self):
        with pytest.raises(ValueError, match="instrument"):
            ExperimentConfig(instrument="verbose")


class TestHashExemption:
    def test_instrument_never_changes_config_hash(self):
        base = ExperimentConfig()
        for mode in ("metrics", "full"):
            assert config_hash(base.replace(instrument=mode)) == config_hash(
                base
            )

    def test_exclusion_is_declared_in_hash_exempt(self):
        assert "instrument" in ExperimentConfig.HASH_EXCLUDE
        assert "ExperimentConfig.instrument" in HASH_EXEMPT


@pytest.mark.parametrize(
    "scenario,num_epochs",
    [("harsh-mixed", 40), ("scale-500", 15)],
    ids=["harsh-mixed", "scale-500"],
)
def test_full_instrumentation_keeps_fingerprints_bit_identical(
    scenario, num_epochs
):
    """The tentpole A/B: instrument=None vs "full" on real scenarios."""
    cfg = build_config(scenario, num_epochs=num_epochs, seed=1)
    plain = TrialSpec(label=scenario, config=cfg)
    full = instrumented(plain, "full")
    assert plain.key == full.key  # shared cache identity

    runner = BatchRunner(max_workers=1, cache_dir=None)
    r_plain = runner.run([plain])[0]
    r_full = runner.run([full])[0]
    assert r_plain.fingerprint() == r_full.fingerprint()
    assert r_plain.telemetry is None
    assert r_full.telemetry is not None
    assert set(r_full.telemetry) == {"metrics", "phases", "trace"}
    # Telemetry carries real signal, not empty shells.
    assert r_full.telemetry["metrics"]["counters"]["runner.epochs"] == (
        num_epochs
    )


def test_every_dirq_update_is_traced():
    """Threshold updates, removals and re-advertisements all record one
    ``dirq.update`` each, so the trace agrees with ``dirq.updates_sent``."""
    cfg = build_config("mobile-40", num_epochs=200, seed=1)
    telemetry = run_experiment(cfg.replace(instrument="full")).telemetry
    counters = telemetry["metrics"]["counters"]
    assert counters["runner.relinks"] > 0  # re-links trigger readvertise
    assert counters["dirq.updates_sent"] > 0
    assert telemetry["trace"]["dirq.update"] == counters["dirq.updates_sent"]


class TestTelemetryNeverForksTheCache:
    def test_cached_result_is_telemetry_free_both_directions(self, tmp_path):
        spec = smoke_sweep(num_nodes=10, num_epochs=40)[0]
        runner = BatchRunner(max_workers=1, cache_dir=tmp_path)
        first = runner.run([instrumented(spec, "full")])[0]
        assert not first.from_cache
        assert first.telemetry is not None

        # An uninstrumented request hits the instrumented run's entry...
        plain = runner.run([spec])[0]
        assert plain.from_cache
        assert plain.telemetry is None
        # ...and an instrumented request is served from cache too (the
        # stored result was stripped, so no telemetry comes back).
        again = runner.run([instrumented(spec, "full")])[0]
        assert again.from_cache
        assert again.telemetry is None
        assert first.fingerprint() == plain.fingerprint()
        assert first.fingerprint() == again.fingerprint()


class TestWorkerCountDeterminism:
    def test_metrics_snapshots_identical_at_1_and_4_workers(self):
        specs = [
            instrumented(s, "metrics")
            for s in smoke_sweep(num_nodes=10, num_epochs=40)
        ]

        def run(workers):
            runner = BatchRunner(
                max_workers=workers, executor="thread", cache_dir=None
            )
            results = runner.run(specs)
            return {
                r.spec.label: {
                    "fingerprint": r.fingerprint(),
                    "metrics": r.telemetry["metrics"],
                }
                for r in results
            }

        serial = json.dumps(run(1), sort_keys=True)
        threaded = json.dumps(run(4), sort_keys=True)
        assert serial == threaded


class TestFastPathCounters:
    """The fast paths' hits and misses are counted, which moves no
    measurement: ``mac.frame_beacons`` are the beacon ticks the beacon
    fast path declined, ``channel.frames_split`` the frames that took a
    transmit event and a delivery event instead of one event."""

    def test_untraced_static_trial_splits_no_frame(self):
        cfg = build_config("static-paper", num_epochs=400, seed=1)
        counters = run_experiment(cfg.replace(instrument="metrics")).telemetry[
            "metrics"
        ]["counters"]
        assert counters["channel.frames_split"] == 0
        assert counters["mac.frame_beacons"] == 0
        assert counters["mac.beacons_sent"] == 2_000

    def test_traced_trial_counts_its_split_frames(self):
        cfg = build_config("static-paper", num_epochs=400, seed=1)
        plain = TrialSpec(label="static-paper", config=cfg)
        runner = BatchRunner(max_workers=1, cache_dir=None)
        r_plain = runner.run([plain])[0]
        r_full = runner.run([instrumented(plain, "full")])[0]
        counters = r_full.telemetry["metrics"]["counters"]
        # The tracer is on: every beacon tick sends a frame, and every
        # payload frame splits so that its channel.tx record keeps its time.
        beacons = counters["mac.beacons_sent"]
        frames = counters["channel.broadcasts"] + counters["channel.unicasts"]
        assert counters["mac.frame_beacons"] == beacons == 2_000
        assert counters["channel.frames_split"] == frames - beacons > 0
        assert r_full.fingerprint() == r_plain.fingerprint()
