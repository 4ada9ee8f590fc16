"""Tests for resumable campaigns: spec expansion, presets, the results store,
resume semantics, and the campaign half of ``python -m repro``.

The two properties this layer exists for:

* **Resume with zero re-work** -- a campaign killed at an arbitrary trial
  resumes executing exactly the missing trials (store rows survive, nothing
  recorded is ever re-run), even with the trial cache disabled.
* **Deterministic exports** -- the JSON export of a campaign is
  byte-identical whether it ran uninterrupted on one worker or was
  interrupted and resumed on four.
"""

import copy
import dataclasses
import hashlib
import itertools
import json
import types

import pytest

from repro.__main__ import main
from repro.experiments import batch as batch_mod
from repro.experiments import campaign as campaign_mod
from repro.experiments.batch import BatchRunner
from repro.experiments.campaign import (
    PRESETS,
    CampaignSpec,
    campaign_status,
    preset,
    run_missing,
    stored_results,
)
from repro.experiments.store import (
    DEFAULT_STORE_NAME,
    METRIC_COLUMNS,
    STORE_METRICS,
    ResultsStore,
)
from repro.metrics.resilience import replicate_groups
from repro.scenarios.registry import scenario_spec


@pytest.fixture(autouse=True)
def _isolate_cache_env(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)


def tiny_campaign(**changes) -> CampaignSpec:
    base = dict(
        name="tiny",
        scenarios=("static-paper",),
        protocols=("dirq", "flooding"),
        replicates=2,
        num_epochs=60,
        seed=1,
    )
    base.update(changes)
    return CampaignSpec(**base)


@pytest.fixture(scope="module")
def trial_template():
    """One real TrialResult to clone in the fake-executor tests."""
    spec = scenario_spec("static-paper", num_epochs=60)
    return BatchRunner(max_workers=1, cache_dir=None).run([spec])[0]


def fake_executor(template):
    def execute(spec):
        return dataclasses.replace(template, spec=spec)

    return execute


class TestCampaignSpec:
    def test_expansion_is_deterministic_and_row_major(self):
        spec = tiny_campaign()
        trials = spec.trial_specs()
        assert len(trials) == spec.total_trials == 1 * 2 * 1 * 2
        # scenarios > protocols > sweep > replicates, row-major.
        assert [t.tags["protocol"] for t in trials] == [
            "dirq", "dirq", "flooding", "flooding",
        ]
        assert [t.tags["replicate"] for t in trials] == [0, 1, 0, 1]
        assert [t.key for t in spec.trial_specs()] == [t.key for t in trials]
        assert len({t.key for t in trials}) == len(trials)
        assert all(t.tags["campaign"] == spec.campaign_id for t in trials)

    def test_campaign_id_is_content_addressed(self):
        spec = tiny_campaign()
        assert spec.campaign_id == tiny_campaign().campaign_id
        assert spec.campaign_id.startswith("tiny-")
        assert (
            tiny_campaign(replicates=3).campaign_id != spec.campaign_id
        )
        assert (
            tiny_campaign(name="spaced name").campaign_id.startswith(
                "spaced-name-"
            )
        )

    def test_dirq_cell_shares_cache_key_with_scenario_cli(self):
        """The campaign tag lives in the spec tags, not the config, so the
        plain dirq cell hashes exactly like the registry's ``scenario_spec``."""
        spec = tiny_campaign(protocols=("dirq",), replicates=1)
        (trial,) = spec.trial_specs()
        assert trial.key == scenario_spec("static-paper", num_epochs=60).key

    def test_sweep_cross_product_and_epoch_special_case(self):
        spec = tiny_campaign(
            protocols=("dirq",),
            replicates=1,
            sweep={
                "target_coverage": (0.2, 0.4),
                "num_epochs": (60, 80),
            },
        )
        points = spec.sweep_points()
        assert len(points) == 4
        trials = spec.trial_specs()
        assert spec.total_trials == len(trials) == 4
        # num_epochs routes through the scenario factory.
        assert sorted({t.config.num_epochs for t in trials}) == [60, 80]
        assert sorted({t.config.target_coverage for t in trials}) == [0.2, 0.4]
        assert len({t.key for t in trials}) == 4

    def test_expansion_deep_copies_each_config_once(self, monkeypatch):
        """A campaign deep-copies nothing: each cell builds one fresh
        config, which its replicates share.  ``replicate_specs`` snapshots
        a caller's config once per call, not once per replicate."""
        sweep = CampaignSpec(
            name="sweep",
            scenarios=(
                "static-paper", "churn-revive", "mobile-40",
                "energy-tiered", "bursty-20",
            ),
            protocols=("dirq", "atc", "flooding"),
            replicates=2,
            num_epochs=200,
        )
        calls = []
        real = copy.deepcopy

        def deepcopy(obj, memo=None):
            if memo is None:
                calls.append(type(obj).__name__)
            return real(obj, memo)

        monkeypatch.setattr(batch_mod.copy, "deepcopy", deepcopy)
        trials = sweep.trial_specs()
        assert len(trials) == 30
        assert calls == []
        for trial in trials:
            base = trials[trials.index(trial) - trial.tags["replicate"]]
            assert trial.tags["base_key"] == base.key
            assert trial.config.dirq is base.config.dirq

        config = trials[0].config
        replicates = batch_mod.replicate_specs("caller", config, 3)
        assert calls == ["ExperimentConfig"]
        assert [r.key for r in replicates[:2]] == [t.key for t in trials[:2]]
        assert all(r.config.dirq is not config.dirq for r in replicates)

    def test_jsonable_roundtrip_preserves_identity(self):
        spec = tiny_campaign(sweep={"target_coverage": (0.2, 0.4)})
        clone = CampaignSpec.from_jsonable(
            json.loads(json.dumps(spec.to_jsonable()))
        )
        assert clone == spec
        assert clone.campaign_id == spec.campaign_id

    def test_validation_rejects_bad_spaces(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            tiny_campaign(scenarios=("no-such",))
        with pytest.raises(KeyError, match="unknown protocol"):
            tiny_campaign(protocols=("udp",))
        with pytest.raises(ValueError, match="duplicate scenario"):
            tiny_campaign(scenarios=("static-paper", "static-paper"))
        with pytest.raises(ValueError, match="replicates"):
            tiny_campaign(replicates=0)
        with pytest.raises(ValueError, match="cannot sweep"):
            tiny_campaign(sweep={"seed": (1, 2)})
        with pytest.raises(ValueError, match="cannot sweep"):
            tiny_campaign(sweep={"no_such_field": (1,)})
        with pytest.raises(ValueError, match="no values"):
            tiny_campaign(sweep={"target_coverage": ()})
        with pytest.raises(ValueError, match="duplicate values"):
            tiny_campaign(sweep={"target_coverage": (0.2, 0.2)})
        with pytest.raises(ValueError, match="scalars"):
            tiny_campaign(sweep={"target_coverage": ([0.2],)})
        # The protocol variants own the protocol: a swept one would run
        # flooding under the ``atc`` tag.
        with pytest.raises(ValueError, match="cannot sweep 'protocol'"):
            CampaignSpec(
                name="x",
                scenarios=("static-paper",),
                protocols=("atc",),
                sweep={"protocol": ("flooding",)},
            )

    def test_parameterised_variants_fail_at_construction(self):
        for variant in ("delta=0", "delta=x", "atc-target=1.5"):
            with pytest.raises(ValueError, match=variant):
                tiny_campaign(protocols=(variant,))
        with pytest.raises(KeyError, match="unknown protocol 'bogus'"):
            tiny_campaign(protocols=("bogus",))

    def test_aliased_variants_are_refused(self, tmp_path, capsys):
        """Two cells of one config would share one store row."""
        for protocols in (("atc", "atc-target=0.5"), ("dirq", "delta=5")):
            with pytest.raises(ValueError, match="identical trials"):
                tiny_campaign(protocols=protocols).trial_specs()
        argv = [
            "run", "--scenarios", "static-paper", "--protocols",
            "atc,atc-target=0.5", "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 2
        assert "identical trials" in capsys.readouterr().err
        assert not (tmp_path / DEFAULT_STORE_NAME).exists()

    def test_parameterised_variants_apply_their_transform(self):
        spec = tiny_campaign(
            protocols=("delta=3", "atc-target=0.35"), replicates=1
        )
        fixed, atc = spec.trial_specs()
        base = scenario_spec("static-paper", num_epochs=60).config
        assert fixed.config == base.with_fixed_delta(3.0)
        assert atc.config == base.with_atc(target_cost_ratio=0.35)
        assert fixed.tags["protocol"] == "delta=3"


class TestPresets:
    """Each preset runs exactly the cells of the figure sweep it replaced.

    The digests are ``sha256(",".join(sorted(keys)))[:16]`` over the base
    (replicate-0) config hashes at 600 epochs, seed 1 -- the values the
    figure sweeps of the previous command-line tools expanded to, so every
    trial they cached still serves the presets.
    """

    PINS = {
        "fig5": "2f431d1cf04926cb",
        "fig6": "6f741cd2d2c78217",
        "fig7": "15f22f5f38471042",
        "headline": "91a310322fad9d85",
    }

    @staticmethod
    def digest(names):
        keys = [
            trial.key
            for name in names
            for trial in preset(name, replicates=1).trial_specs()
        ]
        return hashlib.sha256(",".join(sorted(keys)).encode()).hexdigest()[:16]

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_figure_preset_keys_are_pinned(self, name):
        assert self.digest([name]) == self.PINS[name]

    def test_ablation_presets_together_are_pinned(self):
        # Nine keys, one shared: atc at loss 0 is atc-target=0.5.
        assert self.digest(["loss", "atc-target"]) == "083582e97e4e2508"

    def test_every_preset_runs_on_the_paper_network(self):
        for name in PRESETS:
            spec = preset(name)
            assert spec.name == name and spec.scenarios == ("static-paper",)
            assert (spec.num_epochs, spec.replicates, spec.seed) == (600, 5, 1)


class TestResultsStore:
    def populate(self, tmp_path, template, spec=None):
        spec = spec or tiny_campaign()
        store = ResultsStore(tmp_path / "s.sqlite")
        runner = BatchRunner(max_workers=1, cache_dir=None)
        real = batch_mod._execute_trial
        batch_mod._execute_trial = fake_executor(template)
        try:
            stats = run_missing(spec, store, runner=runner)
        finally:
            batch_mod._execute_trial = real
        return spec, store, stats

    def test_register_is_idempotent_but_rejects_spec_drift(self, tmp_path):
        spec = tiny_campaign()
        with ResultsStore(tmp_path / "s.sqlite") as store:
            for _ in range(2):
                store.register_campaign(
                    spec.campaign_id, spec.name, spec.spec_json, 4
                )
            assert store.campaign(spec.campaign_id).total_trials == 4
            with pytest.raises(ValueError, match="different spec"):
                store.register_campaign(
                    spec.campaign_id, spec.name, "{}", 4
                )

    def test_record_query_and_completed_keys(self, tmp_path, trial_template):
        spec, store, stats = self.populate(tmp_path, trial_template)
        with store:
            assert stats.executed == stats.stored == 4
            assert store.count(spec.campaign_id) == 4
            keys = store.completed_keys(spec.campaign_id)
            assert keys == {t.key for t in spec.trial_specs()}
            rows = store.query(spec.campaign_id)
            # Deterministic order: protocol before replicate.
            assert [(r["protocol"], r["replicate"]) for r in rows] == [
                ("dirq", 0), ("dirq", 1), ("flooding", 0), ("flooding", 1),
            ]
            assert all(
                isinstance(r[name], float) for r in rows for name in METRIC_COLUMNS
            )
            # Re-recording is an upsert, not a duplicate row.
            assert store.count(spec.campaign_id) == 4

    def test_resolve_campaign_by_id_name_and_ambiguity(
        self, tmp_path, trial_template
    ):
        spec, store, _ = self.populate(tmp_path, trial_template)
        with store:
            assert store.resolve_campaign(spec.campaign_id).name == "tiny"
            assert (
                store.resolve_campaign("tiny").campaign_id == spec.campaign_id
            )
            with pytest.raises(KeyError, match="unknown campaign"):
                store.resolve_campaign("nope")
            other = tiny_campaign(replicates=3)
            store.register_campaign(
                other.campaign_id, other.name, other.spec_json,
                other.total_trials,
            )
            with pytest.raises(KeyError, match="ambiguous"):
                store.resolve_campaign("tiny")

    def test_replicate_groups_fold_cells(self, tmp_path, trial_template):
        spec = tiny_campaign()
        runner = BatchRunner(max_workers=1, cache_dir=tmp_path)
        with ResultsStore(tmp_path / DEFAULT_STORE_NAME) as store:
            real = batch_mod._execute_trial
            batch_mod._execute_trial = fake_executor(trial_template)
            try:
                run_missing(spec, store, runner=runner)
            finally:
                batch_mod._execute_trial = real
            results, lost = stored_results(spec, store)
            assert lost == 0
            groups = replicate_groups(results, STORE_METRICS)
            assert len(groups) == 2  # one per (scenario, protocol)
            assert all(g.n == 2 for g in groups)
            assert {g.tags["protocol"] for g in groups} == {
                "dirq", "flooding",
            }
            for group in groups:
                assert set(METRIC_COLUMNS) <= set(group.metrics)

    def test_export_contains_no_provenance(self, tmp_path, trial_template):
        spec, store, _ = self.populate(tmp_path, trial_template)
        with store:
            payload = store.export_jsonable(spec.campaign_id)
        assert payload["completed_trials"] == payload["total_trials"] == 4
        text = json.dumps(payload)
        assert "runtime" not in text and "from_cache" not in text
        assert all(
            set(METRIC_COLUMNS) == set(t["metrics"]) for t in payload["trials"]
        )


class TestRunMissingResume:
    def big_campaign(self) -> CampaignSpec:
        # 2 scenarios x 2 protocols x (5 x 5 sweep points) x 10 replicates
        # = 1000 cells, per the acceptance criteria.
        return CampaignSpec(
            name="big",
            scenarios=("static-paper", "churn-heavy"),
            protocols=("dirq", "atc"),
            replicates=10,
            num_epochs=60,
            sweep={
                "target_coverage": (0.1, 0.2, 0.3, 0.4, 0.5),
                "query_period": (10, 20, 30, 40, 50),
            },
        )

    def run(self, spec, store, template, workers=1, progress=None,
            counter=None):
        """run_missing with a fake executor, on threads; the store is the
        trial cache."""
        runner = BatchRunner(
            max_workers=workers, executor="thread", cache_dir=None
        )
        real = batch_mod._execute_trial
        base = fake_executor(template)

        def counting(spec_):
            if counter is not None:
                counter.append(spec_.key)
            return base(spec_)

        batch_mod._execute_trial = counting
        try:
            return run_missing(spec, store, runner=runner, progress=progress)
        finally:
            batch_mod._execute_trial = real

    def test_thousand_cell_campaign_resumes_with_zero_rework(
        self, tmp_path, trial_template
    ):
        spec = self.big_campaign()
        assert spec.total_trials == 1000
        interrupt_at = 137  # an arbitrary mid-campaign trial
        seen = []

        def interrupting(result):
            seen.append(result)
            if len(seen) == interrupt_at:
                raise KeyboardInterrupt

        with ResultsStore(tmp_path / "s.sqlite") as store:
            with pytest.raises(KeyboardInterrupt):
                self.run(
                    spec, store, trial_template, progress=interrupting
                )
            # Every trial recorded before the kill survived it.
            assert store.count(spec.campaign_id) == interrupt_at

            executed = []
            stats = self.run(spec, store, trial_template, counter=executed)
            assert stats.complete_before == interrupt_at
            assert stats.scheduled == 1000 - interrupt_at
            assert stats.executed == len(executed) == 1000 - interrupt_at
            # Nothing recorded was re-executed.
            assert not {k for k in executed} & {
                r.spec.key for r in seen[:interrupt_at]
            }
            assert store.count(spec.campaign_id) == 1000

            # A third pass over the complete campaign executes nothing.
            third = self.run(spec, store, trial_template)
            assert third.scheduled == third.executed == 0
            assert store.count(spec.campaign_id) == 1000

    def test_interrupted_multiworker_export_matches_serial_run(
        self, tmp_path, trial_template
    ):
        spec = tiny_campaign(
            replicates=3, sweep={"target_coverage": (0.2, 0.4)}
        )

        with ResultsStore(tmp_path / "serial.sqlite") as store:
            self.run(spec, store, trial_template, workers=1)
            reference = json.dumps(
                store.export_jsonable(spec.campaign_id), sort_keys=True,
                indent=2,
            )

        calls = []

        def interrupting(result):
            calls.append(result)
            if len(calls) == 5:
                raise KeyboardInterrupt

        with ResultsStore(tmp_path / "resumed.sqlite") as store:
            with pytest.raises(KeyboardInterrupt):
                self.run(
                    spec, store, trial_template, workers=4,
                    progress=interrupting,
                )
            self.run(spec, store, trial_template, workers=4)
            resumed = json.dumps(
                store.export_jsonable(spec.campaign_id), sort_keys=True,
                indent=2,
            )
        assert resumed == reference

    def test_campaign_composes_with_scenario_cli_cache(self, tmp_path):
        """A trial cached by a plain ``scenario_spec`` run is not re-run --
        but it IS recorded in the store, the same file that holds the cache."""
        cache_dir = tmp_path / "cache"
        cli_spec = scenario_spec("static-paper", num_epochs=60)
        BatchRunner(max_workers=1, cache_dir=cache_dir).run([cli_spec])

        spec = tiny_campaign(protocols=("dirq",), replicates=1)
        runner = BatchRunner(max_workers=1, cache_dir=cache_dir)
        with ResultsStore(cache_dir / DEFAULT_STORE_NAME) as store:
            stats = run_missing(spec, store, runner=runner)
            assert stats.executed == 0
            assert stats.cached == 1
            assert stats.stored == 1
            (row,) = store.query(spec.campaign_id)
            # The store row carries the campaign's identity, not the cached
            # twin's label.
            assert row["scenario"] == "static-paper"
            assert row["label"] == "static-paper/dirq"
            assert [r["key"] for r in store.cached_results()] == [cli_spec.key]
        assert [p.name for p in cache_dir.iterdir()] == [DEFAULT_STORE_NAME]

    def test_campaign_status_counts_cells(self, tmp_path, trial_template):
        spec = tiny_campaign()
        with ResultsStore(tmp_path / "s.sqlite") as store:
            store.register_campaign(
                spec.campaign_id, spec.name, spec.spec_json, spec.total_trials
            )
            store.record_trial(
                spec.campaign_id,
                dataclasses.replace(trial_template, spec=spec.trial_specs()[0]),
            )
            rows = campaign_status(spec, store)
        assert rows == [
            ("static-paper", "dirq", 1, 2),
            ("static-paper", "flooding", 0, 2),
        ]


class TestCampaignProgressAccounting:
    def test_totals_match_store_rows_across_interrupt_and_resume(
        self, tmp_path
    ):
        """``progress`` and :class:`CampaignStats` never disagree with the
        rows the store holds."""
        spec = CampaignSpec(
            name="obs-resume",
            scenarios=("static-paper",),
            protocols=("dirq", "flooding"),
            replicates=3,
            num_epochs=40,
            seed=1,
        )
        total = spec.total_trials
        assert total == 6
        interrupt_at = 3
        seen = []

        def interrupting(result):
            seen.append(result)
            if len(seen) == interrupt_at:
                raise KeyboardInterrupt

        with ResultsStore(tmp_path / "s.sqlite") as store:
            runner = BatchRunner(max_workers=1)
            with pytest.raises(KeyboardInterrupt):
                run_missing(spec, store, runner=runner, progress=interrupting)
            # Every trial the callback saw is a stored row.
            assert len(seen) == store.count(spec.campaign_id) == interrupt_at
            first = runner.last_stats.executed
            assert first == interrupt_at

            resumed = []
            stats = run_missing(
                spec, store, runner=runner, progress=resumed.append
            )
            # The resume sees every trial once, serves the recorded ones
            # and executes only the rest: together the two runs execute
            # the campaign exactly once.
            assert len(resumed) == total
            assert stats.complete_before == interrupt_at
            assert stats.scheduled == stats.executed == stats.stored == (
                total - interrupt_at
            )
            assert stats.cached == 0
            assert store.count(spec.campaign_id) == total
            assert first + stats.executed == total


class TestCampaignCli:
    """``python -m repro run/status/report`` over one campaign store."""

    def base_args(self, tmp_path):
        return [
            "--name", "clitest",
            "--scenarios", "static-paper",
            "--protocols", "dirq",
            "--replicates", "2",
            "--epochs", "60",
            "--workers", "1",
            "--cache-dir", str(tmp_path / "cache"),
        ]

    def store(self, tmp_path):
        return ResultsStore(tmp_path / "cache" / DEFAULT_STORE_NAME)

    def test_new_resume_status_query_roundtrip(self, tmp_path, capsys):
        args = self.base_args(tmp_path)
        export = tmp_path / "out.json"
        md = tmp_path / "out.md"
        assert main(["run"] + args) == 0
        out = capsys.readouterr().out
        assert "executed 2," in out and "0/2 trials already stored" in out

        # Re-running the same command resumes: nothing is left to execute.
        assert main(
            ["run", "--json", str(export), "--markdown", str(md)] + args
        ) == 0
        out = capsys.readouterr().out
        assert "executed 0," in out
        payload = json.loads(export.read_text())
        assert payload["completed_trials"] == 2
        assert [t["replicate"] for t in payload["trials"]] == [0, 1]
        assert "clitest" in md.read_text()

        # status by campaign name; the export is the store's plus groups.
        cache_dir = ["--cache-dir", str(tmp_path / "cache")]
        assert main(["status", "clitest"] + cache_dir) == 0
        assert "2/2" in capsys.readouterr().out
        with self.store(tmp_path) as store:
            campaign_id = store.resolve_campaign("clitest").campaign_id
            expected = store.export_jsonable(campaign_id)
        groups = payload.pop("groups")
        assert payload == expected
        assert [g["n"] for g in groups] == [2]
        assert set(METRIC_COLUMNS) <= set(groups[0]["metrics"])

        # run <campaign> re-opens a registered campaign by name or id.
        assert main(["run", campaign_id, "--workers", "1"] + cache_dir) == 0
        assert "executed 0," in capsys.readouterr().out

    def test_header_reports_throughput_and_utilisation(
        self, tmp_path, capsys, trial_template, monkeypatch
    ):
        """The header's trials/s is scheduled trials over wall time, and its
        utilisation is executed trials' runtimes over wall time × workers."""
        def half_second_trial(spec):
            return dataclasses.replace(
                trial_template, spec=spec, runtime_seconds=0.5
            )

        ticks = itertools.count(10.0, 2.0)
        monkeypatch.setattr(batch_mod, "_execute_trial", half_second_trial)
        monkeypatch.setattr(
            campaign_mod, "time",
            types.SimpleNamespace(perf_counter=lambda: next(ticks)),
        )
        args = self.base_args(tmp_path)
        assert main(["run"] + args) == 0
        assert "wall 2.00s, 1.00 trials/s, util 50%" in capsys.readouterr().out
        # A served re-run schedules and executes nothing.
        assert main(["run"] + args) == 0
        assert "wall 2.00s, 0.00 trials/s, util 0%" in capsys.readouterr().out

    def test_resume_unknown_campaign_fails(self, tmp_path, capsys):
        cache_dir = ["--cache-dir", str(tmp_path / "cache")]
        assert main(["run", "ghost"] + cache_dir) == 2
        assert "no store" in capsys.readouterr().err
        ResultsStore(tmp_path / "cache" / DEFAULT_STORE_NAME).close()
        assert main(["run", "ghost"] + cache_dir) == 2
        assert "unknown campaign 'ghost'" in capsys.readouterr().err
        for command in ("status", "report"):
            assert main([command, "ghost"] + cache_dir) == 2
            assert "unknown campaign 'ghost'" in capsys.readouterr().err

    def test_status_of_empty_store_lists_nothing(self, tmp_path, capsys):
        """status/report/cache on a missing store create nothing."""
        missing = tmp_path / "ghost" / "typo"
        cache_dir = ["--cache-dir", str(missing)]
        assert main(["status"] + cache_dir) == 0
        assert "no store at" in capsys.readouterr().out
        assert main(["cache"] + cache_dir) == 0
        assert "no store at" in capsys.readouterr().out
        assert main(["report", "any"] + cache_dir) == 2
        assert "no store at" in capsys.readouterr().err
        assert not (tmp_path / "ghost").exists()

        ResultsStore(tmp_path / "empty" / DEFAULT_STORE_NAME).close()
        assert main(["status", "--cache-dir", str(tmp_path / "empty")]) == 0
        assert "no campaigns" in capsys.readouterr().out

    def test_require_complete_fails_on_partial_campaign(
        self, tmp_path, capsys, trial_template, monkeypatch
    ):
        """SIGINT exits 130; the re-run executes the remainder only."""
        args = self.base_args(tmp_path)
        calls = []

        def interrupt_after_first(spec):
            if calls:
                raise KeyboardInterrupt
            calls.append(spec.key)
            return dataclasses.replace(trial_template, spec=spec)

        monkeypatch.setattr(batch_mod, "_execute_trial", interrupt_after_first)
        assert main(["run"] + args) == 130
        assert "re-running the same command resumes" in capsys.readouterr().err
        assert main(["status", "clitest", "--cache-dir", args[-1]]) == 0
        assert "1/2" in capsys.readouterr().out

        monkeypatch.setattr(
            batch_mod, "_execute_trial", fake_executor(trial_template)
        )
        assert main(["run", "--require-cached"] + args) == 1
        err = capsys.readouterr().err
        assert "FAIL" in err and "1 trials executed" in err
        assert main(["run", "--require-cached"] + args) == 0

    def test_grid_renders_from_campaign_store(self, tmp_path, capsys):
        """report renders the run's report from the store alone."""
        args = self.base_args(tmp_path)
        assert main(["run"] + args) == 0
        ran = capsys.readouterr().out
        assert main(["report", "clitest", "--cache-dir", args[-1]]) == 0
        out = capsys.readouterr().out
        assert "0 trials executed" in out
        assert "mean_accuracy" in out and "recovery_epochs" in out
        assert out.split("\n\n", 1)[1] == ran.split("\n\n", 1)[1]

    def test_report_json_equals_run_json_and_executes_nothing(
        self, tmp_path, capsys, monkeypatch
    ):
        args = self.base_args(tmp_path)
        ran, reported = tmp_path / "run.json", tmp_path / "report.json"
        assert main(["run", "--json", str(ran)] + args) == 0

        def no_execution(spec):
            raise AssertionError(f"report executed {spec.label}")

        monkeypatch.setattr(batch_mod, "_execute_trial", no_execution)
        assert main(
            ["report", "clitest", "--json", str(reported), "--cache-dir", args[-1]]
        ) == 0
        assert reported.read_bytes() == ran.read_bytes()

    def test_run_reexecutes_pruned_trials(self, tmp_path, capsys):
        """A recorded trial whose cached result is gone runs again."""
        args = self.base_args(tmp_path)
        first = tmp_path / "first.json"
        assert main(["run", "--json", str(first)] + args) == 0
        assert main(["cache", "--prune", "--all", "--cache-dir", args[-1]]) == 0
        capsys.readouterr()
        assert main(["report", "clitest", "--cache-dir", args[-1]]) == 2
        assert "2 recorded trials" in capsys.readouterr().err
        again = tmp_path / "again.json"
        assert main(["run", "--json", str(again)] + args) == 0
        assert "executed 2," in capsys.readouterr().out
        assert again.read_bytes() == first.read_bytes()
        assert main(["report", "clitest", "--cache-dir", args[-1]]) == 0

    def test_report_renders_swept_campaigns(
        self, tmp_path, capsys, trial_template, monkeypatch
    ):
        """A swept campaign reports one row per sweep point."""
        monkeypatch.setattr(
            batch_mod, "_execute_trial", fake_executor(trial_template)
        )
        args = self.base_args(tmp_path)
        assert main(["run", "--sweep", "target_coverage=0.2,0.4"] + args) == 0
        capsys.readouterr()
        assert main(["report", "clitest", "--cache-dir", args[-1]]) == 0
        out = capsys.readouterr().out
        assert "static-paper/dirq target_coverage=0.2" in out
        assert "static-paper/dirq target_coverage=0.4" in out

    def test_preset_name_is_reserved(self, tmp_path, capsys):
        args = self.base_args(tmp_path)
        args[args.index("--name") + 1] = "fig5"
        assert main(["run"] + args) == 2
        assert "preset" in capsys.readouterr().err
