"""End-to-end tests of scenario campaigns through ``python -m repro run``."""

import json

import pytest

from repro.__main__ import main


@pytest.fixture(autouse=True)
def _isolate_cache_env(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.chdir(tmp_path)


def invoke(tmp_path, extra=(), json_name="out.json", scenarios="churn-heavy,static-paper"):
    argv = [
        "run",
        "--scenarios", scenarios,
        "--replicates", "2",
        "--epochs", "120",
        "--workers", "1",
        "--cache-dir", str(tmp_path / "cache"),
        "--json", str(tmp_path / json_name),
        *extra,
    ]
    return main(argv)


class TestRunCLI:
    def test_list_prints_catalogue(self, capsys):
        assert main(["run", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("churn-heavy", "mobile-40", "diurnal-60", "energy-tiered"):
            assert name in out

    def test_unknown_scenario_fails_cleanly(self, tmp_path, capsys):
        code = main(
            ["run", "--scenarios", "nope", "--cache-dir", str(tmp_path / "cache")]
        )
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_scenario_requires_name_or_list(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main([])
        assert main(["run", "--cache-dir", str(tmp_path / "cache")]) == 2
        assert "name a preset" in capsys.readouterr().err

    def test_full_run_writes_tables_and_json(self, tmp_path, capsys):
        assert invoke(tmp_path) == 0
        out = capsys.readouterr().out
        assert "churn-heavy/dirq" in out
        assert "degradation vs static-paper" in out
        assert "recovery_epochs after the first disruption" in out
        payload = json.loads((tmp_path / "out.json").read_text())
        assert payload["spec"]["scenarios"] == ["churn-heavy", "static-paper"]
        assert payload["spec"]["replicates"] == 2
        labels = [g["label"] for g in payload["groups"]]
        assert labels == ["churn-heavy/dirq", "static-paper/dirq"]
        for group in payload["groups"]:
            assert group["n"] == 2

    def test_cached_rerun_is_bit_identical(self, tmp_path, capsys):
        assert invoke(tmp_path, json_name="a.json") == 0
        assert (
            invoke(tmp_path, extra=["--require-cached"], json_name="b.json") == 0
        )
        assert (tmp_path / "a.json").read_bytes() == (
            tmp_path / "b.json"
        ).read_bytes()
        assert "executed 0," in capsys.readouterr().out

    def test_require_cached_fails_on_cold_cache(self, tmp_path, capsys):
        assert invoke(tmp_path, extra=["--require-cached"]) == 1
        assert "FAIL" in capsys.readouterr().err

    def test_baseline_none_skips_comparison_but_keeps_recovery(self, tmp_path, capsys):
        assert invoke(tmp_path, scenarios="churn-heavy") == 0
        out = capsys.readouterr().out
        assert "degradation" not in out
        payload = json.loads((tmp_path / "out.json").read_text())
        (group,) = payload["groups"]
        assert group["label"] == "churn-heavy/dirq"
        # Recovery is a per-cell metric and needs no baseline.
        assert group["metrics"]["recovery_epochs"]["n"] >= 1
