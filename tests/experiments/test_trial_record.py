"""What a stored trial carries, and what serving it from the cache costs.

* **Round trip** -- a trial saved to and loaded from the store measures
  what the executed trial measured: its fingerprint, its ledger's totals,
  and the store summary it carries.
* **Work per hit** -- a fully cache-served campaign computes no
  fingerprint, calls no store-metric extractor and rebuilds no ledger.
  These are counted, not timed, so the check holds on any host.
* **Old rows** -- a results row written before trials carried a summary
  (the committed ``fixtures/results_row_v8.json``) still serves with the
  fingerprint it was written with.
* **One connection** -- a runner whose cache file is the caller's open
  store reads and writes through that store.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import math
import pickle
import sqlite3
from collections import Counter
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.energy.ledger import NetworkLedger, UnreadLedger
from repro.experiments.batch import (
    CACHE_VERSION,
    BatchRunner,
    TrialResult,
    TrialSpec,
    _execute_trial,
)
from repro.experiments.campaign import CampaignSpec, run_missing
from repro.experiments.store import (
    DEFAULT_STORE_NAME,
    STORE_METRICS,
    ResultsStore,
    store_summary,
)
from repro.scenarios.registry import scenario_spec
from repro.scenarios.static import small_network

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
    """Count fingerprints, store-metric extractions and ledger rebuilds."""
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
    monkeypatch.setattr(
        UnreadLedger,
        "_rebuild",
        counting(counts, "ledger rebuild", UnreadLedger._rebuild),
    )
    return counts


def small_campaign(name: str) -> CampaignSpec:
    return CampaignSpec(
        name=name,
        scenarios=("static-paper", "churn-heavy"),
        protocols=("dirq", "atc"),
        num_epochs=40,
    )


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
        # The ledger arrives as rows; re-pickling it re-emits them.
        assert type(loaded.ledger) is UnreadLedger
        again = pickle.loads(pickle.dumps(loaded.ledger))
        assert type(loaded.ledger) is UnreadLedger

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
            stats = run_missing(served, store, runner=runner)
            assert stats.executed == 0
            assert stats.cached == stats.stored == served.total_trials
            assert counts == Counter()

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
        fixture = json.loads((FIXTURES / "results_row_v8.json").read_text())
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
        assert served.from_cache and served.summary is None
        assert type(served.ledger) is NetworkLedger  # the old ledger format
        assert served.fingerprint() == fixture["fingerprint"]
        assert served.fingerprint(include_key=False) == (
            fixture["fingerprint_without_key"]
        )
        with ResultsStore(path) as store:
            store.record_trial("old", served)
            (row,) = store.query("old")
        assert row["fingerprint"] == fixture["fingerprint"]
        assert {name: row[name] for name in STORE_METRICS} == fixture["metrics"]


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

    @pytest.mark.parametrize("runner_dir, expected", [(".", 1), ("cache", 2)])
    def test_run_missing_connects_once_per_file(
        self, tmp_path, connects, runner_dir, expected
    ):
        spec = CampaignSpec(
            name="one", scenarios=("static-paper",), num_epochs=30
        )
        with ResultsStore(tmp_path / DEFAULT_STORE_NAME) as store:
            runner = BatchRunner(max_workers=1, cache_dir=tmp_path / runner_dir)
            stats = run_missing(spec, store, runner=runner)
        assert stats.executed == stats.stored == 1
        assert len(connects) == expected

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
