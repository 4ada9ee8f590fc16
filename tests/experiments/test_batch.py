"""Tests for the batched, parallel experiment orchestrator.

The two properties the batch layer must guarantee:

* **Determinism regardless of worker count** -- the same specs produce
  bit-identical :class:`TrialResult`s whether executed inline, by one
  worker, or fanned across four processes.
* **Cache short-circuiting** -- a re-run of a sweep against a populated
  cache executes zero new trials and returns identical results.
* **Interruption durability** -- a failing trial or a ``KeyboardInterrupt``
  mid-sweep never discards trials that already finished: they are drained
  to the cache before the exception propagates, so a resumed sweep
  re-executes only what was genuinely in flight.
"""

import concurrent.futures
import dataclasses
import sqlite3
import threading

import pytest

from repro.experiments import batch as batch_mod
from repro.experiments import fig5_accuracy
from repro.experiments.batch import (
    BatchRunner,
    TrialResult,
    TrialSpec,
    config_hash,
    replicate_specs,
)
from repro.experiments.campaign import preset
from repro.experiments.config import ExperimentConfig
from repro.scenarios.static import smoke_sweep
from repro.experiments.store import DEFAULT_STORE_NAME, STORE_METRICS, ResultsStore
from repro.metrics.resilience import replicate_groups
from repro.simulation.rng import RandomStreams


def tiny_config(seed: int = 3, **changes) -> ExperimentConfig:
    cfg = ExperimentConfig(
        num_nodes=12,
        comm_range=45.0,
        num_epochs=120,
        query_period=20,
        target_coverage=0.4,
        query_sensor_type="temperature",
        seed=seed,
    )
    return cfg.replace(**changes) if changes else cfg


def cached_keys(cache_dir):
    """Config hashes of the trials cached under ``cache_dir``."""
    with ResultsStore(cache_dir / DEFAULT_STORE_NAME) as store:
        return {row["key"] for row in store.cached_results()}


def tiny_specs():
    return [
        TrialSpec(
            label=f"delta={delta:g}",
            config=tiny_config().with_fixed_delta(delta),
            group="test",
            tags={"delta": delta},
        )
        for delta in (3.0, 5.0, 9.0)
    ]


class TestConfigHash:
    def test_equal_configs_hash_equal(self):
        assert config_hash(tiny_config()) == config_hash(tiny_config())

    def test_every_declared_field_matters(self):
        base = config_hash(tiny_config())
        assert config_hash(tiny_config(seed=99)) != base
        assert config_hash(tiny_config(num_epochs=121)) != base
        assert config_hash(tiny_config().with_fixed_delta(7.0)) != base
        assert config_hash(tiny_config().with_flooding()) != base

    def test_initially_dead_set_order_is_canonical(self):
        a = tiny_config(initially_dead={3, 5, 7})
        b = tiny_config(initially_dead={7, 3, 5})
        assert config_hash(a) == config_hash(b)


class TestTrialSpec:
    def test_snapshots_config_at_creation(self):
        cfg = tiny_config().with_fixed_delta(5.0)
        spec = TrialSpec(label="t", config=cfg)
        key = spec.key
        # Mutating the caller's config afterwards must not change identity.
        cfg.dirq.full_scale["temperature"] = 123.0
        cfg.num_epochs = 999
        assert spec.config is not cfg
        assert spec.config.num_epochs == 120
        assert spec.key == key == config_hash(spec.config)

    def test_replicates_derive_independent_reproducible_seeds(self):
        spec = TrialSpec(label="base", config=tiny_config())
        reps = replicate_specs("base", tiny_config(), 3)
        seeds = [r.config.seed for r in reps]
        assert len(set(seeds)) == 3
        # Replicate 0 IS the base configuration (same seed, same cache key),
        # so previously cached single trials compose into replicate groups.
        assert seeds == [3] + [
            RandomStreams.derive_seed(3, f"rep-{i}") for i in (1, 2)
        ]
        assert reps[0].key == spec.key
        assert reps[0].label == "base"
        # Every replicate is stamped with the group-folding tags.
        assert [r.tags["replicate"] for r in reps] == [0, 1, 2]
        assert all(r.tags["base_key"] == spec.key for r in reps)
        assert all(r.tags["base_label"] == "base" for r in reps)
        # Re-deriving produces the same specs (same keys).
        again = replicate_specs("base", tiny_config(), 3)
        assert [r.key for r in again] == [r.key for r in reps]
        with pytest.raises(ValueError):
            replicate_specs("base", tiny_config(), 0)


class TestBatchRunnerDeterminism:
    def test_serial_and_parallel_results_are_bit_identical(self):
        specs = tiny_specs()
        serial = BatchRunner(max_workers=1).run(specs)
        parallel = BatchRunner(max_workers=4, executor="process").run(specs)
        assert [r.fingerprint() for r in serial] == [
            r.fingerprint() for r in parallel
        ]
        # And the distilled record matches what the serial runner measured.
        for a, b in zip(serial, parallel):
            assert a.num_queries == b.num_queries
            assert a.per_query_costs == b.per_query_costs
            assert a.total_dirq_cost == b.total_dirq_cost
            assert [r.received for r in a.records] == [
                r.received for r in b.records
            ]

    def test_results_returned_in_input_order(self):
        specs = tiny_specs()
        results = BatchRunner(max_workers=4).run(specs)
        assert [r.spec.label for r in results] == [s.label for s in specs]

    def test_duplicate_specs_execute_once_and_share_results(self):
        spec = tiny_specs()[0]
        twin = TrialSpec(label="twin", config=spec.config, group="test")
        runner = BatchRunner(max_workers=1)
        results = runner.run([spec, twin])
        assert runner.last_stats.executed == 1
        assert runner.last_stats.deduplicated == 1
        assert results[0].fingerprint() == results[1].fingerprint()
        # Each returned result is bound to the spec that requested it.
        assert results[0].spec.label == spec.label
        assert results[1].spec.label == "twin"

    def test_trial_result_mirrors_experiment_result_summaries(self):
        (result,) = BatchRunner(max_workers=1).run([tiny_specs()[0]])
        assert isinstance(result, TrialResult)
        assert result.num_queries == len(result.records) > 0
        assert result.total_dirq_cost > 0
        assert result.cost_ratio > 0
        assert len(result.updates_per_window()) == 1  # 120 epochs, 100 window
        assert result.mean_accuracy > 0

    def test_worker_failure_is_reported_with_trial_label(self):
        # A radio range far below the node spacing passes config
        # validation, but no connected deployment exists, so the worker's
        # build fails.
        bad = TrialSpec(
            label="disconnected-deployment",
            config=ExperimentConfig(num_nodes=15, comm_range=1.0),
        )
        with pytest.raises(RuntimeError, match="disconnected-deployment"):
            BatchRunner(max_workers=2, executor="process").run([bad])


class TestBatchRunnerCache:
    def test_cache_short_circuits_already_run_trials(self, tmp_path):
        specs = tiny_specs()
        first = BatchRunner(max_workers=2, cache_dir=tmp_path)
        fresh = first.run(specs)
        assert first.last_stats.executed == len(specs)
        assert first.last_stats.cached == 0

        second = BatchRunner(max_workers=2, cache_dir=tmp_path)
        cached = second.run(specs)
        assert second.last_stats.executed == 0
        assert second.last_stats.cached == len(specs)
        assert all(r.from_cache for r in cached)
        assert [r.fingerprint() for r in fresh] == [
            r.fingerprint() for r in cached
        ]

    def test_partial_cache_executes_only_missing_trials(self, tmp_path):
        specs = tiny_specs()
        BatchRunner(max_workers=1, cache_dir=tmp_path).run(specs[:2])
        runner = BatchRunner(max_workers=1, cache_dir=tmp_path)
        runner.run(specs)
        assert runner.last_stats.cached == 2
        assert runner.last_stats.executed == 1

    def test_corrupt_cache_entry_falls_back_to_execution(self, tmp_path):
        spec = tiny_specs()[0]
        runner = BatchRunner(max_workers=1, cache_dir=tmp_path)
        runner.run([spec])
        with sqlite3.connect(tmp_path / DEFAULT_STORE_NAME) as conn:
            conn.execute(
                "UPDATE results SET result = ? WHERE key = ?",
                (b"not a pickle", spec.key),
            )
        rerun = BatchRunner(max_workers=1, cache_dir=tmp_path)
        rerun.run([spec])
        assert rerun.last_stats.executed == 1

    @pytest.mark.parametrize("runner_dir", ["other", None])
    def test_a_given_store_is_the_cache_whatever_cache_dir_says(
        self, tmp_path, runner_dir
    ):
        """``run(store=...)`` caches in the store and never reads
        ``cache_dir``, even when that directory holds the same trials."""
        specs = tiny_specs()[:2]
        cache_dir = None if runner_dir is None else tmp_path / runner_dir
        if cache_dir is not None:
            BatchRunner(max_workers=1, cache_dir=cache_dir).run(specs)
            before = (cache_dir / DEFAULT_STORE_NAME).read_bytes()
        with ResultsStore(tmp_path / "store" / DEFAULT_STORE_NAME) as store:
            runner = BatchRunner(max_workers=1, cache_dir=cache_dir)
            runner.run(specs, store=store)
            assert runner.last_stats.executed == len(specs)
            assert runner.last_stats.cached == 0
            assert {row["key"] for row in store.cached_results()} == {
                spec.key for spec in specs
            }
            again = runner.run(specs, store=store)
            assert runner.last_stats.executed == 0
            assert runner.last_stats.cached == len(specs)
            assert all(result.from_cache for result in again)
        if cache_dir is not None:
            assert (cache_dir / DEFAULT_STORE_NAME).read_bytes() == before
        else:
            assert [path.name for path in tmp_path.iterdir()] == ["store"]

    def test_sweep_leaves_only_the_store_in_the_cache_dir(self, tmp_path):
        """One persistence layer: no per-trial file is written."""
        specs = smoke_sweep(num_nodes=10, num_epochs=60)
        BatchRunner(max_workers=2, cache_dir=tmp_path).run(specs)
        names = {path.name for path in tmp_path.iterdir()}
        assert DEFAULT_STORE_NAME in names
        assert names <= {
            DEFAULT_STORE_NAME,
            f"{DEFAULT_STORE_NAME}-wal",
            f"{DEFAULT_STORE_NAME}-shm",
        }
        assert cached_keys(tmp_path) == {spec.key for spec in specs}

    def test_cache_hit_rebinds_result_to_requesting_sweeps_spec(self, tmp_path):
        """A result cached by one sweep must not leak its tags into another.

        ``with_atc()`` and ``with_atc(target_cost_ratio=0.5)`` hash equally
        (0.5 is the default), so the ``loss`` preset at loss 0 and the
        ``atc-target`` preset at 0.5 share a cache entry; the consuming
        campaign must still see its own spec tags.
        """
        loss = preset("loss", num_epochs=200, replicates=1, seed=3)
        target = preset("atc-target", num_epochs=200, replicates=1, seed=3)
        loss_zero = loss.trial_specs()[0]
        target_half = target.trial_specs()[1]
        assert loss_zero.key == target_half.key

        first = BatchRunner(max_workers=1, cache_dir=tmp_path)
        first.run([loss_zero])
        assert first.last_stats.executed == 1

        second = BatchRunner(max_workers=1, cache_dir=tmp_path)
        (result,) = second.run([target_half])
        assert second.last_stats.cached == 1
        assert second.last_stats.executed == 0
        assert result.spec.tags["protocol"] == "atc-target=0.5"
        assert result.spec.tags["sweep"] == {}

    def test_fig5_sweep_cached_rerun_executes_zero_trials(self, tmp_path):
        specs = preset("fig5", num_epochs=120, replicates=1).trial_specs()

        def report(runner):
            return fig5_accuracy.render(
                replicate_groups(runner.run(specs), STORE_METRICS)
            )

        first = BatchRunner(max_workers=2, cache_dir=tmp_path)
        report_a = report(first)
        assert first.last_stats.executed == 10

        second = BatchRunner(max_workers=2, cache_dir=tmp_path)
        report_b = report(second)
        assert second.last_stats.executed == 0
        assert second.last_stats.cached == 10
        assert report_a == report_b


class TestBatchRunnerInterruption:
    """A killed sweep loses at most the trials that were in flight."""

    @pytest.fixture()
    def template(self):
        """One real TrialResult to clone (keeps fake executors picklable-free)."""
        return BatchRunner(max_workers=1).run([tiny_specs()[0]])[0]

    def test_parallel_failure_still_caches_finished_siblings(
        self, tmp_path, monkeypatch, template
    ):
        """Bug regression: results finished before a sibling's failure used to
        be discarded un-cached when the failure propagated."""
        specs = tiny_specs()
        goods_done = threading.Event()
        finished = []
        lock = threading.Lock()

        def fake_execute(spec):
            if spec.label == "delta=5":
                # Fail only after both siblings have finished, so their
                # results are provably complete when the error surfaces.
                assert goods_done.wait(timeout=30)
                raise ValueError("boom")
            result = dataclasses.replace(template, spec=spec)
            with lock:
                finished.append(spec.key)
                if len(finished) == 2:
                    goods_done.set()
            return result

        monkeypatch.setattr(batch_mod, "_execute_trial", fake_execute)
        runner = BatchRunner(
            max_workers=3, executor="thread", cache_dir=tmp_path
        )
        with pytest.raises(RuntimeError, match="delta=5"):
            runner.run(specs)
        assert cached_keys(tmp_path) == {specs[0].key, specs[2].key}
        assert runner.last_stats.executed == 2
        # The resume only re-runs the trial that actually failed.
        resumed = BatchRunner(
            max_workers=3, executor="thread", cache_dir=tmp_path
        )
        monkeypatch.setattr(
            batch_mod,
            "_execute_trial",
            lambda spec: dataclasses.replace(template, spec=spec),
        )
        resumed.run(specs)
        assert resumed.last_stats.cached == 2
        assert resumed.last_stats.executed == 1

    def test_keyboard_interrupt_drains_completed_futures_to_cache(
        self, tmp_path, monkeypatch, template
    ):
        """Ctrl-C between a future finishing and its consumption must not
        lose the finished result."""
        monkeypatch.setattr(
            batch_mod,
            "_execute_trial",
            lambda spec: dataclasses.replace(template, spec=spec),
        )

        def interrupting_wait(futures, return_when=None):
            # Let every submitted trial actually finish, then interrupt the
            # coordinator before it can consume a single future -- the
            # worst-case Ctrl-C timing.
            concurrent.futures.wait(
                list(futures),
                return_when=concurrent.futures.ALL_COMPLETED,
            )
            raise KeyboardInterrupt

        monkeypatch.setattr(batch_mod, "wait", interrupting_wait)
        specs = tiny_specs()
        runner = BatchRunner(
            max_workers=2, executor="thread", cache_dir=tmp_path
        )
        with pytest.raises(KeyboardInterrupt):
            runner.run(specs)
        assert cached_keys(tmp_path) == {spec.key for spec in specs}
        assert runner.last_stats.executed == len(specs)
        second = BatchRunner(max_workers=1, cache_dir=tmp_path)
        second.run(specs)
        assert second.last_stats.executed == 0
        assert second.last_stats.cached == len(specs)

    def test_executed_result_is_cached_before_progress_fires(self, tmp_path):
        """An interruption inside a progress callback cannot lose the trial
        the callback is reporting on."""
        specs = tiny_specs()
        reported = []

        def bomb(result):
            reported.append(result.spec.key)
            raise KeyboardInterrupt

        runner = BatchRunner(max_workers=1, cache_dir=tmp_path)
        with pytest.raises(KeyboardInterrupt):
            runner.run(specs, progress=bomb)
        assert len(reported) == 1
        assert cached_keys(tmp_path) == {reported[0]}
        assert runner.last_stats.executed == 1


class TestBatchRunnerApi:
    def test_progress_callback_sees_every_trial(self, tmp_path):
        specs = tiny_specs()
        seen = []
        runner = BatchRunner(max_workers=1, cache_dir=tmp_path)
        runner.run(specs, progress=seen.append)
        assert len(seen) == len(specs)
        # Cache hits report progress too.
        seen.clear()
        BatchRunner(max_workers=1, cache_dir=tmp_path).run(
            specs, progress=seen.append
        )
        assert len(seen) == len(specs)

    def test_progress_fires_once_per_input_spec_rebound(self, tmp_path):
        """Bug regression: deduplicated twins used to get no callback, and
        cache hits used to report the cached twin's spec (wrong label)."""
        spec = tiny_specs()[0]
        twin = TrialSpec(label="twin", config=spec.config, group="test")
        seen = []
        runner = BatchRunner(max_workers=1, cache_dir=tmp_path)
        runner.run([spec, twin], progress=lambda r: seen.append(r.spec.label))
        assert seen == [spec.label, "twin"]
        assert runner.last_stats.deduplicated == 1
        # Cache-hit path: the dedup twin of a cached spec is notified too,
        # and each callback sees its own spec's label.
        seen.clear()
        cached = BatchRunner(max_workers=1, cache_dir=tmp_path)
        cached.run([spec, twin], progress=lambda r: seen.append(r.spec.label))
        assert seen == [spec.label, "twin"]
        assert cached.last_stats.executed == 0

    def test_invalid_arguments_are_rejected(self):
        with pytest.raises(ValueError):
            BatchRunner(executor="gpu")
        with pytest.raises(ValueError):
            BatchRunner(max_workers=0)
