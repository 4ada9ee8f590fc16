"""What a stored trial carries, and what serving it from the cache costs.

* **Round trip** -- a trial saved to and loaded from the store measures
  what the executed trial measured: its fingerprint, its ledger's totals,
  and the store summary it carries.  Its audit and ledger arrive as blobs
  of plain data.
* **Work per hit** -- a fully cache-served campaign computes no
  fingerprint, calls no store-metric extractor and decodes no audit or
  ledger; neither does a process pool's parent before it records, nor the
  front door's report of a served campaign.  These are counted, not
  timed, so the check holds on any host.
* **Old rows** -- results rows written before trials carried a summary
  (``fixtures/results_row_v8.json``) and before the audit and the ledger
  travelled as blobs (``fixtures/results_row_v8_rows.json``) still serve
  with the fingerprints and metrics they were written with.
* **One connection, one pass** -- a runner given the caller's open store
  reads and writes through that store, whatever its ``cache_dir``, and
  the front door hands a campaign to one runner pass.
* **Per cell, not per trial** -- a served campaign canonicalises each
  cell's config once, deep-copies none, rebinds each result once and
  records its served rows in one transaction; a spec's canonical JSON is
  derived state that no pickle carries.
"""

from __future__ import annotations

import base64
import copy
import dataclasses
import hashlib
import json
import math
import pickle
import sqlite3
from collections import Counter
from pathlib import Path
from typing import Dict, Optional

import pytest

from repro.__main__ import main
from repro.energy.ledger import NetworkLedger, UnreadLedger
from repro.experiments import batch as batch_mod
from repro.experiments import campaign as campaign_mod
from repro.experiments import store as store_mod
from repro.experiments.batch import (
    CACHE_VERSION,
    BatchRunner,
    TrialResult,
    TrialSpec,
    _execute_trial,
    config_json,
)
from repro.experiments.campaign import CampaignSpec, run_missing, stored_results
from repro.experiments.config import ExperimentConfig
from repro.experiments.store import (
    DEFAULT_STORE_NAME,
    STORE_METRICS,
    ResultsStore,
    store_summary,
)
from repro.metrics.audit import QueryAudit, UnreadAudit
from repro.metrics.resilience import replicate_groups
from repro.metrics.stats import groups_to_jsonable
from repro.scenarios.registry import scenario_spec
from repro.scenarios.static import small_network
from tests.helpers import class_references

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(autouse=True)
def _isolate_cache_env(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)


def same_summary(a, b) -> bool:
    """Summary equality where a NaN metric equals a NaN metric."""
    return (
        a.key == b.key
        and a.fingerprint == b.fingerprint
        and a.metrics.keys() == b.metrics.keys()
        and all(
            a.metrics[name] == b.metrics[name]
            or (math.isnan(a.metrics[name]) and math.isnan(b.metrics[name]))
            for name in a.metrics
        )
    )


def counting(counts: Counter, name: str, fn):
    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return counted


def count_summary_work(monkeypatch) -> Counter:
    """Count fingerprints, store-metric extractions and audit and ledger
    decodes."""
    counts: Counter = Counter()
    monkeypatch.setattr(
        TrialResult,
        "fingerprint",
        counting(counts, "fingerprint", TrialResult.fingerprint),
    )
    for name, extractor in list(STORE_METRICS.items()):
        monkeypatch.setitem(
            STORE_METRICS, name, counting(counts, f"metric {name}", extractor)
        )
    for member, cls in (("audit", UnreadAudit), ("ledger", UnreadLedger)):
        monkeypatch.setattr(
            cls, "_rebuild", counting(counts, f"{member} decode", cls._rebuild)
        )
    return counts


def small_campaign(name: str, replicates: int = 1) -> CampaignSpec:
    return CampaignSpec(
        name=name,
        scenarios=("static-paper", "churn-heavy"),
        protocols=("dirq", "atc"),
        replicates=replicates,
        num_epochs=40,
    )


def sweep_campaign(name: str) -> CampaignSpec:
    """The shape of the repository benchmark's ``sweep`` campaign (15
    cells, 2 replicates each) at short epochs."""
    return CampaignSpec(
        name=name,
        scenarios=(
            "static-paper", "churn-revive", "mobile-40",
            "energy-tiered", "bursty-20",
        ),
        protocols=("dirq", "atc", "flooding"),
        replicates=2,
        num_epochs=30,
    )


def write_of(statement: str) -> Optional[str]:
    """``BEGIN``/``COMMIT``/``ROLLBACK``, the table an ``INSERT`` writes,
    or ``None`` for a statement that writes nothing."""
    words = statement.split()
    if words[0] in ("BEGIN", "COMMIT", "ROLLBACK"):
        return words[0]
    if words[0] == "INSERT":
        return words[words.index("INTO") + 1]
    return None


class TestRoundTrip:
    @pytest.mark.parametrize(
        "scenario, epochs",
        [("static-paper", 60), ("churn-heavy", 60), ("scale-500-mobile", 24)],
    )
    def test_loaded_record_measures_what_was_executed(
        self, tmp_path, scenario, epochs
    ):
        spec = scenario_spec(scenario, num_epochs=epochs)
        executed = _execute_trial(spec)
        with ResultsStore(tmp_path / DEFAULT_STORE_NAME) as store:
            store.save_result(executed)
            loaded = store.load_result(spec.key)
        assert loaded.from_cache
        # The audit and the ledger arrive as blobs of plain data, and
        # re-pickling them re-emits the blobs.
        for member in (loaded.audit, loaded.ledger):
            _cls, (blob,) = member.__reduce__()
            assert type(blob) is bytes and not class_references(blob)
        again = pickle.loads(pickle.dumps(loaded.ledger))
        assert type(loaded.audit) is UnreadAudit
        assert type(loaded.ledger) is UnreadLedger
        assert loaded.audit.records == executed.audit.records

        assert loaded.fingerprint(include_key=False) == executed.fingerprint(
            include_key=False
        )
        for ledger in (loaded.ledger, again):
            assert (
                ledger.breakdown_by_kind() == executed.ledger.breakdown_by_kind()
            )
            assert list(ledger.per_node_cost().items()) == list(
                executed.ledger.per_node_cost().items()
            )
            for direction in ("tx", "rx", None):
                assert ledger.total_count(
                    direction=direction
                ) == executed.ledger.total_count(direction=direction)
        assert same_summary(loaded.summary, executed.summary)
        assert same_summary(loaded.summary, store_summary(loaded))

    def test_summary_travels_through_rebinding_and_the_pickle(self):
        spec = scenario_spec("static-paper", num_epochs=40)
        executed = _execute_trial(spec)
        twin = TrialSpec(label="twin", config=spec.config, tags={"x": 1})
        rebound = BatchRunner._rebind(executed, twin)
        assert rebound.summary is executed.summary
        assert pickle.loads(pickle.dumps(rebound)).summary == executed.summary
        # The carried value is never what fingerprint() returns: the
        # fingerprint digests the data the record holds.
        planted = dataclasses.replace(
            executed,
            summary=dataclasses.replace(executed.summary, fingerprint="planted"),
        )
        assert planted.fingerprint() == executed.summary.fingerprint


class TestWorkPerHit:
    def test_cache_served_campaign_computes_no_summary(
        self, tmp_path, monkeypatch
    ):
        cold = small_campaign("cold")
        with ResultsStore(tmp_path / DEFAULT_STORE_NAME) as store:
            runner = BatchRunner(max_workers=1, cache_dir=tmp_path)
            run_missing(cold, store, runner=runner)

            counts = count_summary_work(monkeypatch)
            served = small_campaign("served")
            results = []
            stats = run_missing(
                served, store, runner=runner, progress=results.append
            )
            assert stats.executed == 0
            assert stats.cached == stats.stored == served.total_trials
            # No fingerprint, no extractor, no audit or ledger decode: both
            # members are still the blobs the rows carry.
            assert counts == Counter()
            assert {(type(r.audit), type(r.ledger)) for r in results} == {
                (UnreadAudit, UnreadLedger)
            }

            # The rows written from the carried summaries are the executed
            # trials' rows.
            def rows(spec):
                return {
                    row["key"]: (
                        row["fingerprint"],
                        [row[name] for name in STORE_METRICS],
                    )
                    for row in store.query(spec.campaign_id)
                }

            assert rows(served) == rows(cold)

    def test_an_executed_trial_is_summarised_once(self, tmp_path, monkeypatch):
        counts = count_summary_work(monkeypatch)
        spec = small_campaign("threads")
        with ResultsStore(tmp_path / DEFAULT_STORE_NAME) as store:
            runner = BatchRunner(
                max_workers=2, executor="thread", cache_dir=tmp_path
            )
            stats = run_missing(spec, store, runner=runner)
        assert stats.executed == spec.total_trials
        assert counts["fingerprint"] == spec.total_trials
        for name in STORE_METRICS:
            assert counts[f"metric {name}"] == spec.total_trials

    def test_pool_results_are_recorded_undecoded(self, tmp_path, monkeypatch):
        """Results cross the process pool as blobs; the parent caches and
        records them without decoding either member."""
        counts = count_summary_work(monkeypatch)
        unread = []
        record_trial = ResultsStore.record_trial

        def recording(self, campaign_id, result):
            unread.append(
                (type(result.audit), type(result.ledger), sum(counts.values()))
            )
            record_trial(self, campaign_id, result)

        monkeypatch.setattr(ResultsStore, "record_trial", recording)
        spec = small_campaign("pool")
        with ResultsStore(tmp_path / DEFAULT_STORE_NAME) as store:
            runner = BatchRunner(max_workers=2, cache_dir=tmp_path)
            stats = run_missing(spec, store, runner=runner)
        assert stats.executed == stats.stored == spec.total_trials
        assert unread == [(UnreadAudit, UnreadLedger, 0)] * spec.total_trials
        assert counts == Counter()

    def test_a_stale_summary_is_recomputed(self, tmp_path):
        spec = scenario_spec("static-paper", num_epochs=40)
        executed = _execute_trial(spec)
        other = TrialSpec(label="other", config=spec.config.replace(seed=9))
        stale = {
            # Rebound onto another config: the carried key does not match.
            "rebound": dataclasses.replace(executed, spec=other),
            # Computed for another metric set than the store's.
            "metrics": dataclasses.replace(
                executed,
                summary=dataclasses.replace(
                    executed.summary, metrics={"retired": 1.0}
                ),
            ),
        }
        with ResultsStore(tmp_path / DEFAULT_STORE_NAME) as store:
            for campaign_id, result in stale.items():
                store.record_trial(campaign_id, result)
                (row,) = store.query(campaign_id)
                fresh = store_summary(result)
                assert row["key"] == result.spec.key == fresh.key
                assert row["fingerprint"] == fresh.fingerprint
                assert {n: row[n] for n in STORE_METRICS} == fresh.metrics


class TestOldRows:
    def test_parent_row_serves_with_its_parent_fingerprint(self, tmp_path):
        """A row written before trials carried a summary."""
        self.serve(tmp_path, "results_row_v8.json", NetworkLedger, carried=False)

    def test_row_tuple_ledger_serves_with_its_fingerprint(self, tmp_path):
        """A row written before the audit and the ledger travelled as
        blobs: its ledger is an ``UnreadLedger`` over the bare row tuple."""
        self.serve(tmp_path, "results_row_v8_rows.json", UnreadLedger, carried=True)

    @staticmethod
    def serve(tmp_path, fixture_name: str, ledger: type, carried: bool) -> None:
        fixture = json.loads((FIXTURES / fixture_name).read_text())
        # A CACHE_VERSION bump retires this fixture: rows of another
        # version are executed again, never served.
        assert fixture["cache_version"] == CACHE_VERSION
        spec = TrialSpec(
            label="old-row", config=small_network(num_nodes=10, num_epochs=80)
        )
        assert spec.key == fixture["key"]
        path = tmp_path / DEFAULT_STORE_NAME
        ResultsStore(path).close()
        with sqlite3.connect(path) as conn:
            conn.execute(
                "INSERT INTO results (key, cache_version, label, scenario, "
                "campaign, result) VALUES (?, ?, ?, ?, ?, ?)",
                (
                    fixture["key"],
                    fixture["cache_version"],
                    fixture["label"],
                    fixture["scenario"],
                    fixture["campaign"],
                    base64.b64decode(fixture["result_base64"]),
                ),
            )
        conn.close()

        runner = BatchRunner(max_workers=1, cache_dir=tmp_path)
        (served,) = runner.run([spec])
        assert runner.last_stats.executed == 0
        assert served.from_cache
        assert (type(served.audit), type(served.ledger)) == (QueryAudit, ledger)
        if ledger is UnreadLedger:
            assert type(served.ledger._unread) is tuple
        if carried:
            assert served.summary.key == fixture["key"]
            assert served.summary.fingerprint == fixture["fingerprint"]
            assert served.summary.metrics == fixture["metrics"]
        else:
            assert served.summary is None
        assert served.fingerprint() == fixture["fingerprint"]
        assert served.fingerprint(include_key=False) == (
            fixture["fingerprint_without_key"]
        )
        with ResultsStore(path) as store:
            store.record_trial("old", served)
            (row,) = store.query("old")
            # Recorded as it was unpickled: the row's spec left its
            # canonical JSON out, and recording rebuilds it.
            store.record_trial("unbound", store.load_result(spec.key))
            (unbound,) = store.query("unbound")
        assert row["fingerprint"] == fixture["fingerprint"]
        assert {name: row[name] for name in STORE_METRICS} == fixture["metrics"]
        for recorded in (row, unbound):
            text = recorded["config_json"]
            assert text == spec.config_json
            assert hashlib.sha256(text.encode("utf-8")).hexdigest()[:20] == (
                fixture["key"]
            )


class TestOneConnection:
    @pytest.fixture
    def connects(self, monkeypatch):
        opened = []
        real = sqlite3.connect

        def connect(*args, **kwargs):
            opened.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(sqlite3, "connect", connect)
        return opened

    @pytest.mark.parametrize("runner_dir", [".", "cache", None])
    def test_run_missing_connects_once(self, tmp_path, connects, runner_dir):
        spec = CampaignSpec(
            name="one", scenarios=("static-paper",), num_epochs=30
        )
        cache_dir = None if runner_dir is None else tmp_path / runner_dir
        with ResultsStore(tmp_path / DEFAULT_STORE_NAME) as store:
            runner = BatchRunner(max_workers=1, cache_dir=cache_dir)
            stats = run_missing(spec, store, runner=runner)
            assert [row["key"] for row in store.cached_results()] == [
                trial.key for trial in spec.trial_specs()
            ]
        assert stats.executed == stats.stored == 1
        assert len(connects) == 1
        assert [p.name for p in tmp_path.iterdir()] == [DEFAULT_STORE_NAME]

    def test_front_door_run_connects_once(self, tmp_path, connects):
        argv = [
            "run", "--scenarios", "static-paper", "--replicates", "1",
            "--epochs", "30", "--workers", "1", "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        assert len(connects) == 1
        assert main(argv + ["--require-cached"]) == 0
        assert len(connects) == 2
        registered = CampaignSpec(
            name="campaign", scenarios=("static-paper",), num_epochs=30
        )
        assert main([
            "run", registered.campaign_id, "--workers", "1",
            "--cache-dir", str(tmp_path),
        ]) == 0
        assert len(connects) == 3


class TestFrontDoorRunsOnePass:
    def test_a_partly_recorded_campaign_takes_one_runner_pass(
        self, tmp_path, monkeypatch, capsys
    ):
        argv = [
            "run", "--scenarios", "static-paper", "--protocols", "dirq,atc",
            "--replicates", "1", "--epochs", "30", "--workers", "1",
            "--cache-dir", str(tmp_path),
        ]
        execute = batch_mod._execute_trial

        def interrupt_atc(spec):
            if spec.tags["protocol"] == "atc":
                raise KeyboardInterrupt
            return execute(spec)

        monkeypatch.setattr(batch_mod, "_execute_trial", interrupt_atc)
        assert main(argv) == 130
        monkeypatch.setattr(batch_mod, "_execute_trial", execute)
        passes = []
        run = BatchRunner.run

        def counted(runner, specs, *args, **kwargs):
            specs = list(specs)
            passes.append(len(specs))
            return run(runner, specs, *args, **kwargs)

        monkeypatch.setattr(BatchRunner, "run", counted)
        capsys.readouterr()
        assert main(argv) == 0
        assert passes == [2]
        out = capsys.readouterr().out
        assert "1/2 trials already stored" in out
        assert "scheduled 1: executed 1, cache-served 0" in out


class TestFrontDoorReadsEachTrialOnce:
    """``run`` unpickles each trial of its campaign from the cache once."""

    @pytest.fixture
    def loads(self, monkeypatch):
        keys = []
        real = ResultsStore.load_result

        def load_result(self, key):
            keys.append(key)
            return real(self, key)

        monkeypatch.setattr(ResultsStore, "load_result", load_result)
        return keys

    @staticmethod
    def run(tmp_path, scenarios, *extra):
        argv = [
            "run", "--scenarios", scenarios, "--protocols", "dirq,atc",
            "--replicates", "1", "--epochs", "30", "--workers", "1",
            "--cache-dir", str(tmp_path), *extra,
        ]
        assert main(argv) == 0

    def test_fresh_served_and_recorded_runs(self, tmp_path, loads, capsys):
        self.run(tmp_path, "static-paper,churn-heavy")
        assert len(loads) == len(set(loads)) == 4
        loads.clear()
        # A subset campaign: its two trials are cached but not yet its own.
        self.run(tmp_path, "static-paper", "--require-cached")
        assert len(loads) == len(set(loads)) == 2
        loads.clear()
        # Every trial already recorded: each is read once, none executes.
        self.run(tmp_path, "static-paper,churn-heavy", "--require-cached")
        assert len(loads) == len(set(loads)) == 4
        assert "executed 0" in capsys.readouterr().out


class TestFrontDoorReadsSummaries:
    """The report of a served static campaign decodes no trial."""

    def test_served_run_and_report_decode_nothing(
        self, tmp_path, monkeypatch, capsys
    ):
        argv = [
            "run", "--scenarios", "static-paper", "--protocols", "dirq,atc",
            "--replicates", "2", "--epochs", "60", "--workers", "1",
            "--cache-dir", str(tmp_path),
        ]
        cold, served, report = (
            tmp_path / f"{name}.json" for name in ("cold", "served", "report")
        )
        assert main(argv + ["--json", str(cold)]) == 0

        counts = count_summary_work(monkeypatch)
        assert main(argv + ["--require-cached", "--json", str(served)]) == 0
        assert main([
            "report", "campaign", "--cache-dir", str(tmp_path),
            "--json", str(report),
        ]) == 0
        assert counts == Counter()
        assert "executed 0" in capsys.readouterr().out
        assert served.read_bytes() == cold.read_bytes()
        assert report.read_bytes() == cold.read_bytes()

        # The groups equal those of the store metrics recomputed from
        # decoded results.
        spec = CampaignSpec(
            name="campaign", scenarios=("static-paper",),
            protocols=("dirq", "atc"), replicates=2, num_epochs=60,
        )
        with ResultsStore(tmp_path / DEFAULT_STORE_NAME) as store:
            results, lost = stored_results(spec, store)
        assert lost == 0 and len(results) == spec.total_trials
        recomputed = groups_to_jsonable(replicate_groups(results, STORE_METRICS))
        assert counts["audit decode"] == counts["ledger decode"] == len(results)
        exported = json.loads(served.read_text())["groups"]
        assert json.dumps(exported, sort_keys=True) == json.dumps(
            recomputed, sort_keys=True
        )


class TestServedCampaignPaysPerCell:
    """The served path's work is per cell: counted, not timed."""

    @pytest.fixture(scope="class")
    def warm(self, tmp_path_factory):
        """A cache dir whose store holds every trial of the sweep shape."""
        path = tmp_path_factory.mktemp("warm")
        with ResultsStore(path / DEFAULT_STORE_NAME) as store:
            runner = BatchRunner(max_workers=1, cache_dir=path)
            stats = run_missing(sweep_campaign("cold"), store, runner=runner)
        assert stats.executed == 30
        return path

    def test_served_campaign_work(self, warm, monkeypatch):
        counts: Counter = Counter()
        deepcopy = copy.deepcopy
        canonical = batch_mod._canonical

        def counting_deepcopy(obj, memo=None):
            if memo is None and type(obj) is ExperimentConfig:
                counts["deepcopy"] += 1
            return deepcopy(obj, memo)

        def counting_canonical(obj):
            if type(obj) is ExperimentConfig:
                counts["canonical"] += 1
            return canonical(obj)

        monkeypatch.setattr(copy, "deepcopy", counting_deepcopy)
        for module in (batch_mod, campaign_mod, store_mod):
            monkeypatch.setattr(module, "_canonical", counting_canonical)
        monkeypatch.setattr(
            BatchRunner,
            "_rebind",
            staticmethod(counting(counts, "rebind", BatchRunner._rebind)),
        )
        spec = sweep_campaign("served")
        statements: list = []
        with ResultsStore(warm / DEFAULT_STORE_NAME) as store:
            store._conn.set_trace_callback(statements.append)
            runner = BatchRunner(max_workers=1, cache_dir=warm)
            stats = run_missing(spec, store, runner=runner)
            store._conn.set_trace_callback(None)
        assert (stats.executed, stats.cached, stats.stored) == (0, 30, 30)
        # One canonical payload per cell (15), no deep copy, one rebind
        # per trial.
        assert counts == Counter(canonical=15, rebind=30)
        # One transaction registers the campaign, one records its rows.
        writes = [w for w in map(write_of, statements) if w is not None]
        assert writes == (
            ["BEGIN", "campaigns", "COMMIT", "BEGIN"]
            + ["trials"] * 30
            + ["COMMIT"]
        )

    def test_a_raising_callback_finds_the_served_rows_committed(self, warm):
        """The served rows commit before any progress callback fires."""
        spec = sweep_campaign("callback")
        seen = []

        def bomb(result):
            seen.append(result)
            if len(seen) == 3:
                raise KeyboardInterrupt

        path = warm / DEFAULT_STORE_NAME
        runner = BatchRunner(max_workers=1, cache_dir=warm)
        with ResultsStore(path) as store:
            with pytest.raises(KeyboardInterrupt):
                run_missing(spec, store, runner=runner, progress=bomb)
        with ResultsStore(path) as store:
            assert store.count(spec.campaign_id) == spec.total_trials
            stats = run_missing(spec, store, runner=runner)
        assert stats.complete_before == spec.total_trials
        assert (stats.scheduled, stats.executed) == (0, 0)

    def test_an_interrupted_batch_rolls_back_whole(self, warm, monkeypatch):
        """A batch interrupted while recording leaves no row, and the next
        run serves all of them again without simulating."""
        spec = sweep_campaign("recording")
        record_trial = ResultsStore.record_trial
        recorded = []

        def interrupted(self, campaign_id, result):
            if len(recorded) == 3:
                raise KeyboardInterrupt
            record_trial(self, campaign_id, result)
            recorded.append(result)

        path = warm / DEFAULT_STORE_NAME
        runner = BatchRunner(max_workers=1, cache_dir=warm)
        with monkeypatch.context() as patch:
            patch.setattr(ResultsStore, "record_trial", interrupted)
            with ResultsStore(path) as store:
                with pytest.raises(KeyboardInterrupt):
                    run_missing(spec, store, runner=runner)
        assert len(recorded) == 3
        with ResultsStore(path) as store:
            assert store.count(spec.campaign_id) == 0
            stats = run_missing(spec, store, runner=runner)
            assert store.count(spec.campaign_id) == spec.total_trials
        assert (stats.executed, stats.cached) == (0, spec.total_trials)

    def test_cached_rows_carry_no_canonical_json(self, warm):
        """A spec pickles its five fields; its canonical JSON is rebuilt
        on first read."""
        with ResultsStore(warm / DEFAULT_STORE_NAME) as store:
            blobs = [row["result"] for row in store._conn.execute(
                "SELECT result FROM results"
            )]
        assert len(blobs) == 30
        for blob in blobs:
            spec = pickle.loads(blob).spec
            assert list(vars(spec)) == ["label", "config", "group", "tags", "key"]
            assert spec.config_json.encode("utf-8") not in blob
            assert spec.config_json == config_json(spec.config)
        (spec, *_) = sweep_campaign("pickle").trial_specs()
        for clone in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec)):
            assert "_config_json" not in vars(clone)
            assert clone == spec
            assert clone.config_json == spec.config_json

    @pytest.mark.parametrize("workers", [1, 2])
    def test_executed_specs_keep_their_canonical_json(self, tmp_path, workers):
        """Running a trial writes nothing to the config a cell's replicates
        share."""
        spec = small_campaign(f"workers-{workers}", replicates=2)
        results = []
        with ResultsStore(tmp_path / DEFAULT_STORE_NAME) as store:
            runner = BatchRunner(max_workers=workers, cache_dir=tmp_path)
            stats = run_missing(spec, store, runner=runner, progress=results.append)
            rows = {
                row["key"]: row["config_json"]
                for row in store.query(spec.campaign_id)
            }
        assert stats.executed == len(results) == spec.total_trials
        cells: Dict[str, set] = {}
        for result in results:
            trial = result.spec
            assert trial.config_json == config_json(trial.config)
            assert rows[trial.key] == trial.config_json
            cells.setdefault(trial.tags["base_key"], set()).add(
                id(trial.config.dirq)
            )
        # Each cell's two replicates share one nested DirQ config.
        assert [len(dirqs) for dirqs in cells.values()] == [1] * 4
