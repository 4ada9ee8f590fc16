"""Tests for the scenario × protocol evaluation grid and its CLI."""

import json

import pytest

from repro.experiments.batch import BatchRunner
from repro.experiments import grid
from repro.metrics.resilience import grid_degradation
from repro.scenarios.registry import scenario_spec

#: Small-but-real grid used throughout: 2 scenarios x 2 protocols.
SCENARIOS = ["static-paper", "churn-heavy"]
PROTOCOLS = ["dirq", "flooding"]
EPOCHS = 100


def runner(cache_dir="", workers=1):
    if workers == 1:
        return BatchRunner(max_workers=1, cache_dir=cache_dir)
    return BatchRunner(max_workers=workers, cache_dir=cache_dir)


class TestGridSpecs:
    def test_cross_product_row_major(self):
        specs = grid.grid_specs(SCENARIOS, PROTOCOLS, num_epochs=EPOCHS, seed=1)
        assert [s.label for s in specs] == [
            "static-paper/dirq",
            "static-paper/flooding",
            "churn-heavy/dirq",
            "churn-heavy/flooding",
        ]
        assert specs[2].tags == {
            "scenario": "churn-heavy",
            "scenario_kind": "churn",
            "protocol": "dirq",
        }

    def test_dirq_cell_shares_cache_key_with_scenario_spec(self):
        """The cache-composition contract: grid dirq cell == scenarios.run trial."""
        specs = grid.grid_specs(["churn-heavy"], ["dirq"], num_epochs=EPOCHS, seed=1)
        assert specs[0].key == scenario_spec("churn-heavy", num_epochs=EPOCHS).key

    def test_protocol_transforms_change_the_key(self):
        dirq, atc, flood = grid.grid_specs(
            ["churn-heavy"], ["dirq", "atc", "flooding"], num_epochs=EPOCHS
        )
        assert len({dirq.key, atc.key, flood.key}) == 3
        assert flood.config.protocol == "flooding"
        assert atc.config.dirq.threshold_mode == "atc"

    def test_unknown_names_raise(self):
        with pytest.raises(KeyError, match="no-such"):
            grid.grid_specs(["no-such-scenario"], ["dirq"], num_epochs=EPOCHS)
        with pytest.raises(KeyError, match="gossip"):
            grid.grid_specs(["static-paper"], ["gossip"], num_epochs=EPOCHS)

    def test_duplicate_names_rejected(self):
        """Duplicate cells would double-count replicates into one group."""
        with pytest.raises(ValueError, match="duplicate scenario"):
            grid.grid_specs(
                ["churn-heavy", "churn-heavy"], ["dirq"], num_epochs=EPOCHS
            )
        with pytest.raises(ValueError, match="duplicate protocol"):
            grid.grid_specs(
                ["churn-heavy"], ["dirq", "dirq"], num_epochs=EPOCHS
            )

    def test_cli_csv_deduplicates_in_order(self):
        assert grid._csv("a, b,a ,c,b") == ["a", "b", "c"]


class TestRunGrid:
    def test_cells_and_metrics(self):
        cells, stats = grid.run_grid(
            SCENARIOS, PROTOCOLS, replicates=2, num_epochs=EPOCHS, runner=runner()
        )
        assert set(cells) == {(s, p) for s in SCENARIOS for p in PROTOCOLS}
        assert stats.total == 8
        group = cells[("churn-heavy", "dirq")]
        assert group.n == 2
        assert "total_energy" in group.metrics
        assert group.metrics["total_energy"].mean > 0

    def test_degradation_compares_same_protocol_columns(self):
        cells, _ = grid.run_grid(
            SCENARIOS, PROTOCOLS, replicates=1, num_epochs=EPOCHS, runner=runner()
        )
        entries = grid_degradation(cells, "static-paper")
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
            cells, _ = grid.run_grid(
                SCENARIOS,
                PROTOCOLS,
                replicates=2,
                num_epochs=EPOCHS,
                runner=runner(cache_dir=cache_dir, workers=workers),
            )
            recovery = grid.grid_recovery(cells)
            degradation = grid_degradation(cells, "static-paper")
            return json.dumps(
                grid.grid_to_jsonable(
                    cells, SCENARIOS, PROTOCOLS, recovery, degradation,
                    baseline="static-paper",
                ),
                sort_keys=True,
            )

        serial = payload(1, tmp_path / "a")
        parallel = payload(4, tmp_path / "b")
        assert serial == parallel

    def test_warm_cache_executes_zero_trials(self, tmp_path):
        first = runner(cache_dir=tmp_path)
        grid.run_grid(
            SCENARIOS, PROTOCOLS, replicates=2, num_epochs=EPOCHS, runner=first
        )
        assert first.last_stats.executed == 8
        second = runner(cache_dir=tmp_path)
        grid.run_grid(
            SCENARIOS, PROTOCOLS, replicates=2, num_epochs=EPOCHS, runner=second
        )
        assert second.last_stats.executed == 0
        assert second.last_stats.cached == 8

    def test_grid_composes_with_scenario_run_cache(self, tmp_path):
        """Cells already simulated by repro.scenarios.run are cache hits."""
        pre = runner(cache_dir=tmp_path)
        pre.run_replicated(
            [scenario_spec("churn-heavy", num_epochs=EPOCHS)], n=2
        )
        assert pre.last_stats.executed == 2
        after = runner(cache_dir=tmp_path)
        grid.run_grid(
            ["churn-heavy"], ["dirq", "flooding"], replicates=2,
            num_epochs=EPOCHS, runner=after,
        )
        assert after.last_stats.cached == 2  # the dirq column came for free
        assert after.last_stats.executed == 2  # only flooding ran


class TestGridCli:
    def cli(self, tmp_path, *extra, workers=1):
        argv = [
            "--scenarios", ",".join(SCENARIOS),
            "--protocols", ",".join(PROTOCOLS),
            "--replicates", "2",
            "--epochs", str(EPOCHS),
            "--workers", str(workers),
            "--cache-dir", str(tmp_path / "cache"),
            *extra,
        ]
        return grid.main(argv)

    def test_end_to_end_and_cached_bit_identity(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        assert self.cli(tmp_path, "--json", str(a)) == 0
        out = capsys.readouterr().out
        assert "mean_accuracy" in out and "degradation vs static-paper" in out
        assert "churn-heavy" in out
        b = tmp_path / "b.json"
        assert (
            self.cli(tmp_path, "--json", str(b), "--require-cached", workers=4)
            == 0
        )
        assert a.read_bytes() == b.read_bytes()

    def test_require_cached_fails_on_cold_cache(self, tmp_path, capsys):
        assert (
            self.cli(
                tmp_path, "--require-cached",
                "--json", str(tmp_path / "cold.json"),
            )
            == 1
        )
        assert "FAIL" in capsys.readouterr().err

    def test_markdown_export(self, tmp_path, capsys):
        md = tmp_path / "grid.md"
        assert self.cli(tmp_path, "--markdown", str(md)) == 0
        text = md.read_text()
        assert "| scenario | dirq | flooding |" in text
        assert "## mean_accuracy" in text

    def test_baseline_appended_when_absent(self, tmp_path, capsys):
        argv = [
            "--scenarios", "churn-heavy",
            "--protocols", "dirq",
            "--replicates", "1",
            "--epochs", str(EPOCHS),
            "--workers", "1",
            "--cache-dir", str(tmp_path / "cache"),
            "--json", str(tmp_path / "g.json"),
        ]
        assert grid.main(argv) == 0
        payload = json.loads((tmp_path / "g.json").read_text())
        assert payload["scenarios"] == ["churn-heavy", "static-paper"]
        assert payload["degradation"]["cells"]

    def test_baseline_none_disables_degradation(self, tmp_path, capsys):
        argv = [
            "--scenarios", "churn-heavy",
            "--protocols", "dirq",
            "--replicates", "1",
            "--epochs", str(EPOCHS),
            "--workers", "1",
            "--baseline", "none",
            "--cache-dir", str(tmp_path / "cache"),
            "--json", str(tmp_path / "g.json"),
        ]
        assert grid.main(argv) == 0
        payload = json.loads((tmp_path / "g.json").read_text())
        assert payload["scenarios"] == ["churn-heavy"]
        assert payload["degradation"]["cells"] == []

    def test_unknown_scenario_exits_2(self, tmp_path, capsys):
        argv = [
            "--scenarios", "no-such",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert grid.main(argv) == 2
        assert "no-such" in capsys.readouterr().err

    def test_list_prints_catalogue(self, capsys):
        assert grid.main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "area-blast" in out and "group-mobile" in out
        assert "flooding" in out
