"""Tests for the trial cache table and ``python -m repro cache``."""

import json
import pickle
import sqlite3

import pytest

from repro.__main__ import main
from repro.experiments.batch import CACHE_VERSION, BatchRunner, TrialSpec
from repro.experiments.config import ExperimentConfig
from repro.experiments.store import DEFAULT_STORE_NAME, ResultsStore


@pytest.fixture(autouse=True)
def _isolate_cache_env(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)


def tiny_spec(seed=3, label="tiny") -> TrialSpec:
    config = ExperimentConfig(
        num_nodes=8,
        comm_range=50.0,
        num_epochs=60,
        query_period=20,
        query_sensor_type="temperature",
        seed=seed,
    )
    return TrialSpec(label=label, config=config, group="test", tags={"k": 1})


def cache_cli(argv):
    return main(["cache", *argv])


def cached_rows(cache_dir):
    with ResultsStore(cache_dir / DEFAULT_STORE_NAME) as store:
        return store.cached_results()


def restamp(cache_dir, key, version):
    """Rewrite the version stamp of one cached row, as an older build would
    have left it."""
    with sqlite3.connect(cache_dir / DEFAULT_STORE_NAME) as conn:
        conn.execute(
            "UPDATE results SET cache_version = ? WHERE key = ?",
            (version, key),
        )


class TestScanAndPrune:
    def populate(self, tmp_path):
        spec = tiny_spec()
        BatchRunner(max_workers=1, cache_dir=tmp_path).run([spec])
        return spec

    def test_scan_reports_ok_entry(self, tmp_path):
        spec = self.populate(tmp_path)
        (row,) = cached_rows(tmp_path)
        assert row["key"] == spec.key
        assert row["cache_version"] == CACHE_VERSION
        assert row["label"] == "tiny"
        assert row["scenario"] == row["campaign"] == ""
        assert row["size_bytes"] > 0

    def test_scan_flags_stale_orphan_and_legacy(self, tmp_path, capsys):
        """A row of another cache version lists as stale."""
        spec = self.populate(tmp_path)
        other = tiny_spec(seed=4, label="old")
        BatchRunner(max_workers=1, cache_dir=tmp_path).run([other])
        restamp(tmp_path, other.key, CACHE_VERSION - 1)
        assert cache_cli(["--cache-dir", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        old_line = next(line for line in lines if other.key in line)
        ok_line = next(line for line in lines if spec.key in line)
        assert "stale" in old_line and str(CACHE_VERSION - 1) in old_line
        assert " ok " in ok_line

    def test_stale_version_row_is_a_miss_and_pruned(self, tmp_path):
        spec = self.populate(tmp_path)
        restamp(tmp_path, spec.key, CACHE_VERSION - 1)
        runner = BatchRunner(max_workers=1, cache_dir=tmp_path)
        (result,) = runner.run([spec])
        assert runner.last_stats.executed == 1
        assert runner.last_stats.cached == 0
        assert not result.from_cache
        versions = sorted(row["cache_version"] for row in cached_rows(tmp_path))
        assert versions == [CACHE_VERSION - 1, CACHE_VERSION]
        assert cache_cli(["--prune", "--cache-dir", str(tmp_path)]) == 0
        (row,) = cached_rows(tmp_path)
        assert (row["key"], row["cache_version"]) == (spec.key, CACHE_VERSION)

    def test_prune_removes_stale_and_orphans_keeps_ok(self, tmp_path, capsys):
        """--prune deletes the stale rows and keeps the current ones."""
        spec = self.populate(tmp_path)
        other = tiny_spec(seed=4, label="old")
        BatchRunner(max_workers=1, cache_dir=tmp_path).run([other])
        restamp(tmp_path, other.key, CACHE_VERSION - 1)
        assert cache_cli(["--prune", "--cache-dir", str(tmp_path)]) == 0
        assert "pruned 1 of 2 entries" in capsys.readouterr().out
        assert [row["key"] for row in cached_rows(tmp_path)] == [spec.key]

    def test_foreign_json_next_to_valid_pickle_is_ignored(self, tmp_path):
        """A ``<key>.pkl`` + ``<key>.json`` pair that an older build left in
        the cache dir is neither read nor deleted."""
        spec = tiny_spec()
        result = BatchRunner(max_workers=1, cache_dir="").run([spec])[0]
        pkl = tmp_path / f"{spec.key}.pkl"
        pkl.write_bytes(pickle.dumps({"version": CACHE_VERSION, "result": result}))
        manifest = tmp_path / f"{spec.key}.json"
        manifest.write_text(json.dumps({"version": CACHE_VERSION, "key": spec.key}))
        runner = BatchRunner(max_workers=1, cache_dir=tmp_path)
        runner.run([spec])
        assert runner.last_stats.executed == 1
        for argv in (["--prune"], ["--prune", "--all"]):
            assert cache_cli(argv + ["--cache-dir", str(tmp_path)]) == 0
        assert pkl.is_file() and manifest.is_file()

    def test_prune_never_touches_unrelated_json(self, tmp_path):
        """Files next to the store (CLI exports, configs) are not ours."""
        self.populate(tmp_path)
        export = tmp_path / "scenario-churn-heavy.json"
        export.write_text(json.dumps({"groups": [], "replicates": 2}))
        broken = tmp_path / "not-json.json"
        broken.write_text("{nope")
        assert (
            cache_cli(["--prune", "--all", "--cache-dir", str(tmp_path)]) == 0
        )
        assert export.is_file() and broken.is_file()
        assert cached_rows(tmp_path) == []

    def test_prune_all_empties_the_cache(self, tmp_path):
        """--prune --all deletes every cached trial but keeps campaigns."""
        from repro.experiments.campaign import CampaignSpec, run_missing

        spec = CampaignSpec(
            name="keepme",
            scenarios=("static-paper",),
            protocols=("dirq",),
            num_epochs=60,
        )
        runner = BatchRunner(max_workers=1, cache_dir=tmp_path)
        with ResultsStore(tmp_path / DEFAULT_STORE_NAME) as store:
            run_missing(spec, store, runner=runner)
        self.populate(tmp_path)
        assert len(cached_rows(tmp_path)) == 2
        assert (
            cache_cli(["--prune", "--all", "--cache-dir", str(tmp_path)]) == 0
        )
        assert cached_rows(tmp_path) == []
        with ResultsStore(tmp_path / DEFAULT_STORE_NAME) as store:
            assert store.campaign(spec.campaign_id) is not None
            assert store.count(spec.campaign_id) == 1

    def test_list_cli_output(self, tmp_path, capsys):
        self.populate(tmp_path)
        assert cache_cli(["--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "tiny" in out and "ok" in out
        header = next(line for line in out.splitlines() if "key" in line)
        assert header.split() == [
            "key", "label", "scenario", "campaign", "version", "status",
            "size", "kB",
        ]

    def test_list_shows_scenario_name_when_present(self, tmp_path, capsys):
        """Grid/scenario cache entries are inspectable by scenario name."""
        from repro.scenarios.registry import scenario_spec

        spec = scenario_spec("churn-heavy", num_epochs=60)
        BatchRunner(max_workers=1, cache_dir=tmp_path).run([spec])
        self.populate(tmp_path)  # a non-scenario entry alongside
        rows = {row["key"]: row for row in cached_rows(tmp_path)}
        assert rows[spec.key]["scenario"] == "churn-heavy"
        assert cache_cli(["--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "scenario" in out  # the column header
        assert "churn-heavy" in out
        # The non-scenario entry renders a placeholder, not an empty cell.
        tiny_line = next(line for line in out.splitlines() if "tiny" in line)
        assert " - " in tiny_line

    def test_list_shows_campaign_id_when_present(self, tmp_path, capsys):
        """Campaign and ad-hoc cache entries are distinguishable."""
        from repro.experiments.campaign import CampaignSpec, run_missing

        spec = CampaignSpec(
            name="cachetest",
            scenarios=("static-paper",),
            protocols=("dirq",),
            num_epochs=60,
        )
        runner = BatchRunner(max_workers=1, cache_dir=tmp_path)
        with ResultsStore(tmp_path / DEFAULT_STORE_NAME) as store:
            run_missing(spec, store, runner=runner)
        self.populate(tmp_path)  # an ad-hoc entry alongside
        rows = {row["key"]: row for row in cached_rows(tmp_path)}
        (trial,) = spec.trial_specs()
        assert rows[trial.key]["campaign"] == spec.campaign_id
        assert cache_cli(["--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "campaign" in out  # the column header
        assert spec.campaign_id in out
        # The ad-hoc entry renders a placeholder in the campaign column.
        tiny_line = next(line for line in out.splitlines() if "tiny" in line)
        assert tiny_line.count(" - ") >= 2  # scenario and campaign

    def test_list_empty_cache(self, tmp_path, capsys):
        missing = tmp_path / "none"
        assert cache_cli(["--cache-dir", str(missing)]) == 0
        assert "no store at" in capsys.readouterr().out
        assert not missing.exists()  # listing creates nothing
        assert cache_cli(["--prune", "--cache-dir", str(missing)]) == 0
        assert not missing.exists()

    def test_prune_selectors_require_prune(self, tmp_path):
        with pytest.raises(SystemExit):
            cache_cli(["--all", "--cache-dir", str(tmp_path)])

    def test_cached_result_survives_a_prune_pass(self, tmp_path):
        spec = self.populate(tmp_path)
        cache_cli(["--prune", "--cache-dir", str(tmp_path)])
        runner = BatchRunner(max_workers=1, cache_dir=tmp_path)
        runner.run([spec])
        assert runner.last_stats.cached == 1 and runner.last_stats.executed == 0
