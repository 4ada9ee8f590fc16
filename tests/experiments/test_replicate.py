"""Tests for replicated sweeps: ``TrialSpec.replicates`` + ``BatchRunner.run``
+ ``group_replicates``, and replicated preset runs of ``python -m repro``.

Covers the replication layer's end-to-end contract: cached single trials
compose into replicate groups without re-running (replicate 0 is the base
config), group summaries are bit-identical at any worker count, and a
preset run emits ± cells plus a JSON export and is fully cache-served on a
re-run.
"""

import json

import pytest

from repro.__main__ import main
from repro.experiments.batch import BatchRunner, TrialSpec, replicate_specs
from repro.experiments.campaign import PRESETS, preset
from repro.experiments.config import ExperimentConfig
from repro.metrics.stats import group_replicates


@pytest.fixture(autouse=True)
def _isolate_cache_env(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)


def tiny_config(seed: int = 3) -> ExperimentConfig:
    return ExperimentConfig(
        num_nodes=10,
        comm_range=45.0,
        num_epochs=80,
        query_period=20,
        target_coverage=0.4,
        query_sensor_type="temperature",
        seed=seed,
    )


def tiny_spec(label="base", seed=3, **tags) -> TrialSpec:
    return TrialSpec(
        label=label,
        config=tiny_config(seed=seed).with_fixed_delta(5.0),
        group="test",
        tags=tags,
    )


def run_replicated(runner, specs, n):
    """Every spec ``n`` times through ``runner``; one group per spec."""
    if isinstance(specs, TrialSpec):
        specs = [specs]
    expanded = [
        rep
        for spec in specs
        for rep in replicate_specs(
            spec.label, spec.config, n, group=spec.group, tags=spec.tags
        )
    ]
    return group_replicates(runner.run(expanded))


class TestRunReplicated:
    def test_one_group_per_spec_with_n_replicates(self, tmp_path):
        runner = BatchRunner(max_workers=1, cache_dir=tmp_path)
        groups = run_replicated(
            runner, [tiny_spec("a"), tiny_spec("b", seed=11)], n=3
        )
        assert [g.label for g in groups] == ["a", "b"]
        assert [g.n for g in groups] == [3, 3]
        assert runner.last_stats.total == 6
        for group in groups:
            assert group.executed == 3 and group.cache_hits == 0
            assert group.metrics["cost_ratio"].n == 3

    def test_accepts_a_single_spec(self):
        runner = BatchRunner(max_workers=1, cache_dir="")
        (group,) = run_replicated(runner, tiny_spec(), n=2)
        assert group.n == 2

    def test_cached_single_trial_composes_into_group(self, tmp_path):
        spec = tiny_spec()
        first = BatchRunner(max_workers=1, cache_dir=tmp_path)
        first.run([spec])  # an un-replicated run populates the cache
        assert first.last_stats.executed == 1

        second = BatchRunner(max_workers=1, cache_dir=tmp_path)
        (group,) = run_replicated(second, spec, n=3)
        # Replicate 0 is the base config: only the 2 new seeds execute.
        assert second.last_stats.cached == 1
        assert second.last_stats.executed == 2
        assert group.cache_hits == 1 and group.executed == 2
        assert group.results[0].config.seed == spec.config.seed

    def test_groups_bit_identical_across_worker_counts(self):
        specs = [tiny_spec("a"), tiny_spec("b", seed=11)]
        serial = run_replicated(
            BatchRunner(max_workers=1, cache_dir=""), specs, n=2
        )
        threaded = run_replicated(
            BatchRunner(max_workers=3, cache_dir="", executor="thread"),
            specs,
            n=2,
        )
        assert [g.to_dict() for g in serial] == [g.to_dict() for g in threaded]
        fingerprints = lambda groups: [
            r.fingerprint() for g in groups for r in g.results
        ]
        assert fingerprints(serial) == fingerprints(threaded)

    def test_replicate_summaries_have_intervals(self):
        runner = BatchRunner(max_workers=1, cache_dir="")
        (group,) = run_replicated(runner, tiny_spec(), n=3)
        summary = group.metrics["total_dirq_cost"]
        assert summary.n == 3
        assert summary.ci_halfwidth is not None
        assert summary.minimum <= summary.mean <= summary.maximum


class TestReplicateCli:
    def run_cli(self, tmp_path, *extra):
        argv = [
            "run",
            "headline",
            "--replicates",
            "2",
            "--epochs",
            "60",
            "--workers",
            "1",
            "--cache-dir",
            str(tmp_path / "cache"),
            "--json",
            str(tmp_path / "out.json"),
            *extra,
        ]
        return main(argv)

    def test_emits_ci_cells_and_json_export(self, tmp_path, capsys):
        assert self.run_cli(tmp_path) == 0
        out = capsys.readouterr().out
        assert "± " in out and "[n=2]" in out
        payload = json.loads((tmp_path / "out.json").read_text())
        assert payload["name"] == "headline"
        assert payload["spec"]["replicates"] == 2
        assert len(payload["groups"]) == 2  # atc, flooding
        for group in payload["groups"]:
            assert group["n"] == 2
            assert group["metrics"]["cost_ratio"]["ci_halfwidth"] is not None

    def test_rerun_is_fully_cache_served_and_bit_identical(
        self, tmp_path, capsys
    ):
        assert self.run_cli(tmp_path) == 0
        first = (tmp_path / "out.json").read_bytes()
        capsys.readouterr()
        assert self.run_cli(tmp_path, "--require-cached") == 0
        out = capsys.readouterr().out
        assert "executed 0," in out
        assert (tmp_path / "out.json").read_bytes() == first

    def test_require_cached_fails_on_cold_cache(self, tmp_path, capsys):
        assert self.run_cli(tmp_path, "--require-cached") == 1

    def test_specs_for_covers_every_figure(self):
        for name in PRESETS:
            spec = preset(name, num_epochs=100)
            assert spec.trial_specs(), name
        with pytest.raises(KeyError):
            preset("fig99")
