"""Tests for scenario × protocol campaigns and their report.

A campaign over several scenarios and protocol variants is what the grid
used to be: one replicate row per cell, recovery per cell, and degradation
rows against each cell's ``static-paper`` twin.
"""

import json

import pytest

from repro.__main__ import _csv, main
from repro.experiments.batch import BatchRunner
from repro.experiments.campaign import CampaignSpec, run_missing, stored_results
from repro.experiments.store import DEFAULT_STORE_NAME, STORE_METRICS, ResultsStore
from repro.metrics.resilience import cell_degradation, replicate_groups
from repro.scenarios.registry import scenario_spec

#: Small-but-real grid used throughout: 2 scenarios x 2 protocols.
SCENARIOS = ["static-paper", "churn-heavy"]
PROTOCOLS = ["dirq", "flooding"]
EPOCHS = 100


@pytest.fixture(autouse=True)
def _isolate_cache_env(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)


def grid(scenarios=SCENARIOS, protocols=PROTOCOLS, replicates=1):
    return CampaignSpec(
        name="grid",
        scenarios=tuple(scenarios),
        protocols=tuple(protocols),
        replicates=replicates,
        num_epochs=EPOCHS,
    )


def run_grid(cache_dir, replicates=2, workers=1, **spec_changes):
    """Run the grid campaign; returns (groups, the runner's stats)."""
    spec = grid(replicates=replicates, **spec_changes)
    runner = BatchRunner(max_workers=workers, cache_dir=cache_dir)
    with ResultsStore(cache_dir / DEFAULT_STORE_NAME) as store:
        run_missing(spec, store, runner=runner)
        results, lost = stored_results(spec, store)
    assert lost == 0
    return replicate_groups(results, STORE_METRICS), runner.last_stats


def cells_of(groups):
    return {(g.tags["scenario"], g.tags["protocol"]): g for g in groups}


class TestGridSpecs:
    def test_cross_product_row_major(self):
        specs = grid().trial_specs()
        assert [s.label for s in specs] == [
            "static-paper/dirq",
            "static-paper/flooding",
            "churn-heavy/dirq",
            "churn-heavy/flooding",
        ]
        tags = dict(specs[2].tags)
        assert (tags["scenario"], tags["scenario_kind"], tags["protocol"]) == (
            "churn-heavy", "churn", "dirq",
        )

    def test_dirq_cell_shares_cache_key_with_scenario_spec(self):
        """The cache-composition contract: a dirq cell == the registry's trial."""
        (spec,) = grid(["churn-heavy"], ["dirq"]).trial_specs()
        assert spec.key == scenario_spec("churn-heavy", num_epochs=EPOCHS).key

    def test_protocol_transforms_change_the_key(self):
        dirq, atc, flood = grid(
            ["churn-heavy"], ["dirq", "atc", "flooding"]
        ).trial_specs()
        assert len({dirq.key, atc.key, flood.key}) == 3
        assert flood.config.protocol == "flooding"
        assert atc.config.dirq.threshold_mode == "atc"

    def test_unknown_names_raise(self):
        with pytest.raises(KeyError, match="no-such"):
            grid(["no-such-scenario"], ["dirq"])
        with pytest.raises(KeyError, match="gossip"):
            grid(["static-paper"], ["gossip"])

    def test_duplicate_names_rejected(self):
        """Duplicate cells would double-count replicates into one group."""
        with pytest.raises(ValueError, match="duplicate scenario"):
            grid(["churn-heavy", "churn-heavy"], ["dirq"])
        with pytest.raises(ValueError, match="duplicate protocol"):
            grid(["churn-heavy"], ["dirq", "dirq"])

    def test_cli_csv_deduplicates_in_order(self):
        assert _csv("a, b,a ,c,b") == ["a", "b", "c"]


class TestRunGrid:
    def test_cells_and_metrics(self, tmp_path):
        groups, stats = run_grid(tmp_path)
        cells = cells_of(groups)
        assert set(cells) == {(s, p) for s in SCENARIOS for p in PROTOCOLS}
        assert stats.total == 8
        group = cells[("churn-heavy", "dirq")]
        assert group.n == 2
        assert "total_energy" in group.metrics
        assert group.metrics["total_energy"].mean > 0

    def test_degradation_compares_same_protocol_columns(self, tmp_path):
        groups, _ = run_grid(tmp_path, replicates=1)
        cells = cells_of(groups)
        entries = cell_degradation(cells, "static-paper")
        assert [(s, p) for s, p, _ in entries] == [
            ("churn-heavy", "dirq"),
            ("churn-heavy", "flooding"),
        ]
        for _, protocol, rows in entries:
            assert rows, "no shared metrics compared"
            base = cells[("static-paper", protocol)]
            for row in rows:
                assert row.baseline_mean == base.metrics[row.metric].mean

    def test_json_bit_identical_1_vs_4_workers(self, tmp_path):
        def payload(workers, cache_dir):
            groups, _ = run_grid(cache_dir, workers=workers)
            return json.dumps([g.to_dict() for g in groups], sort_keys=True)

        serial = payload(1, tmp_path / "a")
        parallel = payload(4, tmp_path / "b")
        assert serial == parallel

    def test_warm_cache_executes_zero_trials(self, tmp_path):
        _, first = run_grid(tmp_path)
        assert first.executed == 8
        # A second campaign naming the same cells is served from the cache.
        _, second = run_grid(tmp_path, protocols=list(reversed(PROTOCOLS)))
        assert second.executed == 0
        assert second.cached == 8

    def test_grid_composes_with_scenario_run_cache(self, tmp_path):
        """Cells already simulated by another campaign are cache hits."""
        run_grid(tmp_path, scenarios=["churn-heavy"], protocols=["dirq"])
        _, after = run_grid(tmp_path, scenarios=["churn-heavy"])
        assert after.cached == 2  # the dirq column came for free
        assert after.executed == 2  # only flooding ran


class TestGridCli:
    def cli(self, tmp_path, *extra, workers=1, scenarios=SCENARIOS):
        argv = [
            "run",
            "--scenarios", ",".join(scenarios),
            "--protocols", ",".join(PROTOCOLS),
            "--replicates", "2",
            "--epochs", str(EPOCHS),
            "--workers", str(workers),
            "--cache-dir", str(tmp_path / "cache"),
            *extra,
        ]
        return main(argv)

    def test_end_to_end_and_cached_bit_identity(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        assert self.cli(tmp_path, "--json", str(a)) == 0
        out = capsys.readouterr().out
        assert "mean_accuracy" in out and "degradation vs static-paper" in out
        assert "churn-heavy/flooding" in out
        b = tmp_path / "b.json"
        assert (
            self.cli(tmp_path, "--json", str(b), "--require-cached", workers=4)
            == 0
        )
        assert a.read_bytes() == b.read_bytes()

    def test_require_cached_fails_on_cold_cache(self, tmp_path, capsys):
        assert self.cli(tmp_path, "--require-cached") == 1
        assert "FAIL" in capsys.readouterr().err

    def test_markdown_export(self, tmp_path, capsys):
        md = tmp_path / "grid.md"
        assert self.cli(tmp_path, "--markdown", str(md)) == 0
        text = md.read_text()
        assert text.startswith("# Campaign `campaign-")
        assert "static-paper/flooding" in text and "mean_accuracy" in text

    def test_baseline_none_disables_degradation(self, tmp_path, capsys):
        """Without static-paper in the campaign there is nothing to compare."""
        json_path = tmp_path / "g.json"
        assert self.cli(
            tmp_path, "--json", str(json_path), scenarios=["churn-heavy"]
        ) == 0
        assert "degradation" not in capsys.readouterr().out
        payload = json.loads(json_path.read_text())
        assert payload["spec"]["scenarios"] == ["churn-heavy"]

    def test_unknown_scenario_exits_2(self, tmp_path, capsys):
        argv = [
            "run",
            "--scenarios", "no-such",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 2
        assert "no-such" in capsys.readouterr().err
        assert not (tmp_path / "cache").exists()

    def test_list_prints_catalogue(self, capsys):
        assert main(["run", "--list"]) == 0
        out = capsys.readouterr().out
        assert "area-blast" in out and "group-mobile" in out
        assert "flooding" in out and "delta=X" in out and "atc-target=X" in out
        assert "fig5" in out and "headline" in out
