"""The SQLite store: the trial cache and the campaign results, in one file.

One file, ``<cache-dir>/campaigns.sqlite``, holds

* a ``results`` table -- the trial cache of
  :class:`~repro.experiments.batch.BatchRunner`: one pickled
  :class:`~repro.experiments.batch.TrialResult` per ``(config hash,
  CACHE_VERSION)``, with the spec's label, scenario and campaign beside it
  for ``python -m repro cache``.  It answers "have I simulated this exact
  config?".  The pickle holds the query audit and the ledger as two
  opaque blobs of plain rows, which decode only when something reads
  them, and the trial's :class:`StoreSummary`, so a cache hit costs one
  row read and an unpickle that builds neither;
* a ``campaigns`` table -- one row per registered
  :class:`~repro.experiments.campaign.CampaignSpec` (its canonical JSON,
  its deterministic id, and the expanded trial count), and
* a ``trials`` table -- one row per finished campaign trial with its
  identity columns (campaign, scenario, protocol, sweep point, replicate,
  config hash, seed) and the scalar metrics of :data:`STORE_METRICS` as
  real, SQL-queryable columns, plus the trial fingerprint and the full
  canonical config JSON.

Durability contract
-------------------
:meth:`ResultsStore.save_result` and :meth:`ResultsStore.record_trial`
each write **one row in its own transaction**, unless they are called
inside :meth:`ResultsStore.transaction`, whose writes commit together or
not at all.  ``run_missing`` records an executed trial in its own
transaction, so a killed process (crash, OOM, Ctrl-C) loses at most the
trials that were in flight; it records the trials served from the cache
in one transaction, so an interruption there loses only rows that the next
run serves again without simulating.  Everything committed is immediately
visible to the next run or resume.  Rows are keyed ``(key,
cache_version)`` and ``(campaign_id, key)``, and re-writing one is
idempotent.

Determinism contract
--------------------
:meth:`export_jsonable` contains only identity columns, metrics, and
fingerprints -- never runtimes, timestamps, or cache provenance -- and
orders rows by ``(scenario, protocol, sweep, replicate)``, so a campaign's
export is byte-identical no matter how many workers ran it, how often it
was interrupted and resumed, or in which order trials finished.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import pickle
import sqlite3
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Set

from ..metrics.stats import DEFAULT_METRICS
from .batch import CACHE_VERSION, _canonical, _dumps

#: The store's filename inside a cache directory: the one file that keeps
#: both the trial cache and the campaigns.
DEFAULT_STORE_NAME = "campaigns.sqlite"

#: Scalar metrics persisted as real columns of the ``trials`` table --
#: every default replicate metric plus the protocol-agnostic total radio
#: energy.  The campaign report's replicate table shows this same set.
STORE_METRICS: Dict[str, Callable[[object], float]] = dict(DEFAULT_METRICS)
STORE_METRICS["total_energy"] = lambda r: float(r.ledger.total_cost())

#: Column order of the metric columns (stable: dict insertion order).
METRIC_COLUMNS = tuple(STORE_METRICS)


@dataclasses.dataclass(frozen=True)
class StoreSummary:
    """The ``trials`` row values of one trial, tagged with what they were
    computed for: the spec's config hash and the metric names.

    A :class:`~repro.experiments.batch.TrialResult` carries one from the
    worker that executed it, through the trial cache, to every
    :meth:`ResultsStore.record_trial` of it.
    """

    key: str
    fingerprint: str
    metrics: Dict[str, float]


def store_summary(result) -> StoreSummary:
    """Compute ``result``'s summary: its fingerprint and every store metric."""
    return StoreSummary(
        key=result.spec.key,
        fingerprint=result.fingerprint(),
        metrics={
            name: float(extractor(result))
            for name, extractor in STORE_METRICS.items()
        },
    )


def current_summary(result) -> StoreSummary:
    """``result``'s summary for its spec and today's :data:`STORE_METRICS`.

    The carried summary when it was computed for this config hash and these
    metric names; otherwise -- a row written before summaries existed, a
    result rebound to another config, or a metric added since -- a fresh
    one, which ``result`` then carries.
    """
    summary = result.summary
    if (
        summary is None
        or summary.key != result.spec.key
        or summary.metrics.keys() != STORE_METRICS.keys()
    ):
        summary = result.summary = store_summary(result)
    return summary


_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    key           TEXT NOT NULL,
    cache_version INTEGER NOT NULL,
    label         TEXT NOT NULL,
    scenario      TEXT NOT NULL,
    campaign      TEXT NOT NULL,
    result        BLOB NOT NULL,
    PRIMARY KEY (key, cache_version)
);
CREATE TABLE IF NOT EXISTS campaigns (
    campaign_id   TEXT PRIMARY KEY,
    name          TEXT NOT NULL,
    spec_json     TEXT NOT NULL,
    total_trials  INTEGER NOT NULL,
    cache_version INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS trials (
    campaign_id     TEXT NOT NULL REFERENCES campaigns(campaign_id),
    key             TEXT NOT NULL,
    scenario        TEXT NOT NULL,
    protocol        TEXT NOT NULL,
    sweep_json      TEXT NOT NULL,
    replicate       INTEGER NOT NULL,
    base_key        TEXT NOT NULL,
    base_label      TEXT NOT NULL,
    label           TEXT NOT NULL,
    seed            INTEGER NOT NULL,
    num_epochs      INTEGER NOT NULL,
    fingerprint     TEXT NOT NULL,
    {metric_columns},
    runtime_seconds REAL NOT NULL,
    from_cache      INTEGER NOT NULL,
    config_json     TEXT NOT NULL,
    PRIMARY KEY (campaign_id, key)
);
CREATE INDEX IF NOT EXISTS trials_by_cell
    ON trials (campaign_id, scenario, protocol, replicate);
""".format(
    metric_columns=",\n    ".join(f'"{name}" REAL' for name in METRIC_COLUMNS)
)


@dataclasses.dataclass(frozen=True)
class CampaignRow:
    """One registered campaign as stored."""

    campaign_id: str
    name: str
    spec_json: str
    total_trials: int
    cache_version: int

    @property
    def spec_jsonable(self) -> Dict[str, object]:
        return json.loads(self.spec_json)


class ResultsStore:
    """The trial cache and the campaign results of one SQLite file.

    A store is cheap to open and safe to share between processes (SQLite
    WAL journal, short transactions).  Sharing it
    does not divide the work: ``run_missing`` lists the missing trials
    once, when it starts, so two runs started together both execute the
    trials neither had recorded yet.  What holds is that a later or
    resumed run skips every trial already recorded.

    A connection is bound to the thread that opened it.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(str(self.path))
        self._conn.row_factory = sqlite3.Row
        # WAL keeps readers (status/query/other workers) unblocked while a
        # trial row commits; NORMAL sync still guarantees commit atomicity
        # -- a crash loses at most the in-flight transaction, which is
        # exactly the store's durability contract.
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        with self._conn:
            self._conn.executescript(_SCHEMA)
        self._in_transaction = False

    def close(self) -> None:
        self._conn.close()

    @contextlib.contextmanager
    def transaction(self) -> Iterator[None]:
        """Make the writes inside the block one transaction: they commit
        together when it ends, and roll back together if it raises.  A
        write inside joins it rather than committing on its own, and so
        does a nested block."""
        if self._in_transaction:
            yield
            return
        self._in_transaction = True
        try:
            with self._conn:
                yield
        finally:
            self._in_transaction = False

    def __enter__(self) -> "ResultsStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the trial cache -----------------------------------------------------

    def load_result(self, key: str):
        """The cached trial of config hash ``key``, or ``None``.

        ``None`` also covers a row of another :data:`CACHE_VERSION` and a
        blob that no longer unpickles: either way the trial runs again.
        """
        row = self._conn.execute(
            "SELECT result FROM results WHERE key = ? AND cache_version = ?",
            (key, CACHE_VERSION),
        ).fetchone()
        if row is None:
            return None
        try:
            result = pickle.loads(row["result"])
        except Exception:
            return None
        result.from_cache = True
        return result

    def save_result(self, result) -> None:
        """Cache one executed trial (one transaction, or the open one).

        Telemetry is stripped first, so an instrumented run serves
        uninstrumented re-runs and the other way round.
        """
        if result.telemetry is not None:
            result = dataclasses.replace(result, telemetry=None)
        spec = result.spec
        with self.transaction():
            self._conn.execute(
                "INSERT OR REPLACE INTO results "
                "(key, cache_version, label, scenario, campaign, result) "
                "VALUES (?, ?, ?, ?, ?, ?)",
                (
                    spec.key,
                    CACHE_VERSION,
                    spec.label,
                    str(spec.tags.get("scenario", "")),
                    str(spec.tags.get("campaign", "")),
                    pickle.dumps(result),
                ),
            )

    def cached_results(self) -> List[Dict[str, object]]:
        """Every cached trial without its blob, ordered by key and version.

        Each row carries ``key``, ``cache_version``, ``label``,
        ``scenario``, ``campaign`` and ``size_bytes``.
        """
        rows = self._conn.execute(
            "SELECT key, cache_version, label, scenario, campaign, "
            "length(result) AS size_bytes FROM results "
            "ORDER BY key, cache_version"
        ).fetchall()
        return [dict(row) for row in rows]

    def prune_results(self, everything: bool = False) -> int:
        """Delete the cached trials of other versions (all with
        ``everything``); campaign rows stay.  Returns the rows deleted."""
        with self._conn:
            if everything:
                cursor = self._conn.execute("DELETE FROM results")
            else:
                cursor = self._conn.execute(
                    "DELETE FROM results WHERE cache_version != ?",
                    (CACHE_VERSION,),
                )
        if cursor.rowcount:
            self._conn.execute("VACUUM")  # hand the freed pages back
        return cursor.rowcount

    # -- campaigns -----------------------------------------------------------

    def register_campaign(
        self, campaign_id: str, name: str, spec_json: str, total_trials: int
    ) -> None:
        """Record a campaign's identity (idempotent for an identical spec).

        Raises ``ValueError`` if the id is already registered with a
        *different* spec -- the id is a content hash, so this only happens
        when two genuinely different specs collide on a hand-given id,
        which must never be silently merged.
        """
        existing = self.campaign(campaign_id)
        if existing is not None:
            if existing.spec_json != spec_json:
                raise ValueError(
                    f"campaign {campaign_id!r} is already registered with a "
                    "different spec"
                )
            return
        with self.transaction():
            self._conn.execute(
                "INSERT INTO campaigns "
                "(campaign_id, name, spec_json, total_trials, cache_version) "
                "VALUES (?, ?, ?, ?, ?)",
                (campaign_id, name, spec_json, total_trials, CACHE_VERSION),
            )

    def campaign(self, campaign_id: str) -> Optional[CampaignRow]:
        row = self._conn.execute(
            "SELECT * FROM campaigns WHERE campaign_id = ?", (campaign_id,)
        ).fetchone()
        return None if row is None else CampaignRow(**dict(row))

    def campaigns(self) -> List[CampaignRow]:
        """Every registered campaign, ordered by id."""
        rows = self._conn.execute(
            "SELECT * FROM campaigns ORDER BY campaign_id"
        ).fetchall()
        return [CampaignRow(**dict(r)) for r in rows]

    def resolve_campaign(self, ref: str) -> CampaignRow:
        """The campaign matching ``ref`` -- an exact id or a unique name.

        Raises ``KeyError`` when nothing matches or a bare name is
        ambiguous (several registered parameterisations share it).
        """
        exact = self.campaign(ref)
        if exact is not None:
            return exact
        matches = [row for row in self.campaigns() if row.name == ref]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            known = ", ".join(r.campaign_id for r in self.campaigns()) or "none"
            raise KeyError(f"unknown campaign {ref!r}; registered: {known}")
        raise KeyError(
            f"campaign name {ref!r} is ambiguous: "
            + ", ".join(r.campaign_id for r in matches)
        )

    # -- trials --------------------------------------------------------------

    def record_trial(self, campaign_id: str, result) -> None:
        """Upsert one finished trial, atomically: in its own transaction,
        or in the open :meth:`transaction`.

        ``result`` is a :class:`~repro.experiments.batch.TrialResult` whose
        spec carries the campaign expansion tags (``scenario``,
        ``protocol``, ``sweep``, ``replicate``, ``base_key`` /
        ``base_label``); trials from un-tagged specs fall back to blank
        identity columns but are stored all the same.  ``config_json`` is
        the spec's canonical JSON, which its key digests.
        """
        spec = result.spec
        tags = spec.tags
        sweep = tags.get("sweep") or {}
        summary = current_summary(result)
        row = {
            "campaign_id": campaign_id,
            "key": spec.key,
            "scenario": str(tags.get("scenario", "")),
            "protocol": str(tags.get("protocol", "")),
            "sweep_json": _dumps(_canonical(sweep)),
            "replicate": int(tags.get("replicate", 0)),
            "base_key": str(tags.get("base_key", spec.key)),
            "base_label": str(tags.get("base_label", spec.label)),
            "label": spec.label,
            "seed": int(spec.config.seed),
            "num_epochs": int(spec.config.num_epochs),
            "fingerprint": summary.fingerprint,
            "runtime_seconds": float(result.runtime_seconds),
            "from_cache": int(bool(result.from_cache)),
            "config_json": spec.config_json,
        }
        row.update(summary.metrics)
        columns = list(row)
        placeholders = ", ".join("?" for _ in columns)
        quoted = ", ".join(f'"{c}"' for c in columns)
        with self.transaction():
            self._conn.execute(
                f"INSERT OR REPLACE INTO trials ({quoted}) "
                f"VALUES ({placeholders})",
                [row[c] for c in columns],
            )

    def completed_keys(self, campaign_id: str) -> Set[str]:
        """Config hashes of every recorded trial of the campaign."""
        rows = self._conn.execute(
            "SELECT key FROM trials WHERE campaign_id = ?", (campaign_id,)
        ).fetchall()
        return {row["key"] for row in rows}

    def count(self, campaign_id: str) -> int:
        (n,) = self._conn.execute(
            "SELECT COUNT(*) FROM trials WHERE campaign_id = ?", (campaign_id,)
        ).fetchone()
        return int(n)

    def query(self, campaign_id: str) -> List[Dict[str, object]]:
        """Stored trial rows of a campaign, deterministically ordered.

        Rows come back as plain dicts (identity columns + metric columns +
        fingerprint), ordered by ``(scenario, protocol, sweep, replicate,
        key)`` -- independent of insertion order, so the rows of a resumed
        campaign match the uninterrupted one's.
        """
        rows = self._conn.execute(
            "SELECT * FROM trials WHERE campaign_id = ?"
            " ORDER BY scenario, protocol, sweep_json, replicate, key",
            (campaign_id,),
        ).fetchall()
        return [dict(row) for row in rows]

    def export_jsonable(self, campaign_id: str) -> Dict[str, object]:
        """The deterministic JSON payload of a campaign's stored results.

        Contains the campaign spec and one entry per stored trial --
        identity, metrics, fingerprint -- and deliberately **no**
        provenance (runtimes, cache hits, insertion order), so the export
        of a resumed campaign is byte-identical to an uninterrupted run at
        any worker count.
        """
        campaign = self.campaign(campaign_id)
        if campaign is None:
            raise KeyError(f"unknown campaign {campaign_id!r}")
        trials = []
        for row in self.query(campaign_id):
            trials.append(
                {
                    "key": row["key"],
                    "scenario": row["scenario"],
                    "protocol": row["protocol"],
                    "sweep": json.loads(row["sweep_json"]),
                    "replicate": row["replicate"],
                    "base_key": row["base_key"],
                    "label": row["label"],
                    "seed": row["seed"],
                    "num_epochs": row["num_epochs"],
                    "fingerprint": row["fingerprint"],
                    "metrics": {
                        name: row[name] for name in METRIC_COLUMNS
                    },
                }
            )
        return {
            "campaign_id": campaign.campaign_id,
            "name": campaign.name,
            "spec": campaign.spec_jsonable,
            "cache_version": campaign.cache_version,
            "total_trials": campaign.total_trials,
            "completed_trials": len(trials),
            "trials": trials,
        }
