"""``python -m repro trial``: one instrumented trial, rendered."""

import json

import pytest

from repro.__main__ import main
from repro.experiments.campaign import preset
from repro.obs.trace_export import validate_chrome_trace


@pytest.fixture(autouse=True)
def _isolate_cache_env(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)


@pytest.mark.parametrize("num_epochs,seed", [(300, 1), (120, 7)])
def test_headline_alias_is_the_headline_presets_atc_trial(
    num_epochs, seed, tmp_path
):
    (atc,) = [
        trial
        for trial in preset(
            "headline", num_epochs=num_epochs, replicates=1, seed=seed
        ).trial_specs()
        if trial.tags["protocol"] == "atc"
    ]
    path = tmp_path / "headline.json"
    rc = main(
        [
            "trial",
            "headline",
            "--epochs",
            str(num_epochs),
            "--seed",
            str(seed),
            "--instrument",
            "metrics",
            "--json",
            str(path),
        ]
    )
    assert rc == 0
    assert json.loads(path.read_text())["key"] == atc.key


class TestTrialMode:
    def test_renders_phases_metrics_and_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "t.trace.json"
        json_path = tmp_path / "t.json"
        md_path = tmp_path / "t.md"
        jsonl_path = tmp_path / "t.jsonl"
        rc = main(
            [
                "trial",
                "static-paper",
                "--epochs",
                "40",
                "--trace-out",
                str(trace_path),
                "--trace-jsonl",
                str(jsonl_path),
                "--json",
                str(json_path),
                "--markdown",
                str(md_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "epoch-tick phase profile" in out
        assert "metric snapshot" in out
        assert "trace record counts" in out

        validate_chrome_trace(json.loads(trace_path.read_text()))
        assert jsonl_path.exists()
        assert "## Phase profile" in md_path.read_text()

        payload = json.loads(json_path.read_text())
        assert payload["label"] == "static-paper"
        assert payload["metrics"]["counters"]["runner.epochs"] == 40
        assert "phase_counts" in payload
        # Deterministic export: no measured durations may enter.
        assert "totals" not in json.dumps(payload)

    def test_json_export_is_reproducible(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            rc = main(
                [
                    "trial",
                    "static-paper",
                    "--epochs",
                    "30",
                    "--instrument",
                    "metrics",
                    "--json",
                    str(path),
                ]
            )
            assert rc == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_metrics_only_mode_skips_phase_table(self, tmp_path, capsys):
        rc = main(
            ["trial", "static-paper", "--epochs", "30", "--instrument", "metrics"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "metric snapshot" in out
        assert "phase profile" not in out


def test_scenario_is_required(capsys):
    """The command runs one trial; a campaign's stored results are
    ``python -m repro report X``."""
    with pytest.raises(SystemExit):
        main(["trial", "--epochs", "30"])
    assert "required: SCENARIO" in capsys.readouterr().err
