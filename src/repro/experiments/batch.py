"""Batched, parallel trial execution over the trial cache.

Every sweep is a campaign (:mod:`repro.experiments.campaign`), and a
campaign runs its trials through this module:

* :class:`TrialSpec` -- one declarative point of a sweep: a label, a
  read-only experiment configuration, and free-form tags
  (``{"scenario": ..., "protocol": ...}``) the report groups by.
* :class:`TrialResult` -- the picklable measurement record of one trial
  (audit, aggregated ledger, cost breakdown, windowed series).  It shares
  the summary API of :class:`~repro.experiments.runner.ExperimentResult`
  but carries no live simulator objects, so it can cross process
  boundaries and be cached.  The worker that executes a trial also
  computes its store summary (fingerprint and store metrics) once, and
  the record carries it, so serving the trial from the cache reads one
  row and unpickles it -- nothing is recomputed, and the audit and the
  ledger stay blobs until something reads them.
* :class:`BatchRunner` -- fans a list of specs across worker processes via
  :mod:`concurrent.futures`, deduplicates identical configurations, and
  caches results keyed by :func:`config_hash` in the ``results`` table of
  a :class:`~repro.experiments.store.ResultsStore`, so re-running a sweep
  only executes the missing trials.

Determinism contract
--------------------
Every trial builds its own :class:`~repro.simulation.rng.RandomStreams`
from its config's seed, and running a trial writes nothing to its config,
so a trial's result depends only on its declared configuration -- never
on worker count, execution order, or sibling trials.
:meth:`TrialResult.fingerprint` condenses the deterministic payload into
a hash for bit-exactness assertions.  Replications
(:func:`replicate_specs`) derive their seeds with
:meth:`RandomStreams.derive_seed`, so replicate ``i`` of a spec is itself a
pure function of the base config; replicate 0 keeps the base seed, which is
what lets cached single trials compose into replicate groups.

Cache versioning
----------------
Cached results are only trusted when their recorded :data:`CACHE_VERSION`
matches the module's.  The constant must be bumped whenever the stored
payload layout *or the simulation semantics* change (e.g. v2: reception
energy charged at delivery rather than transmission), because a cache entry
is a claim that "this config, simulated today, would produce exactly this
result" -- stale-version entries are silently re-executed, never migrated.
Changing what :meth:`TrialResult.fingerprint` digests needs a bump too.
Adding a store metric does not: a carried summary computed for other
metric names is recomputed when the trial is recorded.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import hashlib
import json
import os
import time
from concurrent.futures import (
    FIRST_EXCEPTION,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
)

from ..energy.ledger import NetworkLedger
from ..metrics.audit import QueryAudit, QueryRecord
from ..metrics.cost import CostBreakdown
from ..metrics.series import WindowPoint
from ..network.addresses import NodeId
from ..simulation.rng import RandomStreams
from .config import ExperimentConfig
from .runner import ExperimentResult, HeadlineSummaries, run_experiment

if TYPE_CHECKING:
    from .store import StoreSummary

#: Environment variable providing a default cache directory.
CACHE_ENV_VAR = "REPRO_CACHE_DIR"

#: Cache directory ``python -m repro`` falls back to when neither
#: ``--cache-dir`` nor the environment provides one.
DEFAULT_CACHE_DIR = ".repro-cache"


def resolve_cache_dir(arg: Optional[str] = None) -> str:
    """The CLI cache-directory resolution: flag, else env, else default."""
    if arg is not None:
        return arg
    return os.environ.get(CACHE_ENV_VAR) or DEFAULT_CACHE_DIR

#: Bumped whenever the stored format or the simulation semantics change in
#: a way that invalidates cached results.  v2: reception energy is charged
#: at delivery time (refund-on-drop fix), which changes ledger totals for
#: runs where nodes die with frames in flight.  v3: ``TrialResult`` gained
#: scenario telemetry fields (``scenario_events``, ``num_relinks``) that
#: older pickles lack.  v4: a reactivated node's ledger is checkpointed so
#: its fresh battery no longer inherits the dead battery's tail spend,
#: which changes outcomes for revive-churn + finite-energy compositions.
#: v5: initial kills are applied in sorted node order (reprolint RL110
#: fix), so results no longer depend on the ``initially_dead`` set's
#: insertion history -- energy ledgers/breakdowns change for multi-node
#: initially_dead configs whose iteration order differed from sorted.
#: v6: ``TrialResult`` gained the hash-exempt ``telemetry`` field (obs
#: subsystem) that older pickles lack; measurements are unchanged, but a
#: v5 pickle would raise on the missing attribute.
#: v7: LMAC lost its slot election, so the start-up beacon phase is the
#: per-node MAC generator's first draw instead of its second, and a
#: revived node re-advertises its ranges to its new parent.  Lossless
#: static results are unchanged; churn, mobility, battery and lossy runs
#: move within noise (revival runs gain accuracy).
#: v8: one tree rule carries the tree over kills, revivals and re-links
#: (a node keeps its parent while that parent is an alive neighbour one
#: BFS level up), and a parent forgets an ex-child's ranges when the tree
#: changes.  Static results are unchanged; churn, mobility and battery
#: runs move (mobility overshoot falls to the static level).
CACHE_VERSION = 8

#: Config-dataclass fields deliberately excluded from hash coverage, as
#: ``"ClassName.field"`` strings.  The reprolint RL2xx rules verify that
#: every field of every config dataclass is reachable from
#: :func:`_canonical` (hence :func:`config_hash`) *or* listed here with a
#: written rationale -- an unhashed field would silently alias distinct
#: configs onto one cache entry.
#:
#: ``ExperimentConfig.instrument``: the observability level.  It selects
#: how much the obs layer *records* about a trial, never what the trial
#: computes, so instrumented and uninstrumented runs of one config must
#: share a cache key -- hashing it would fork the cache for bit-identical
#: results.  Enforced from the other side by ``ExperimentConfig.
#: HASH_EXCLUDE`` (reprolint RL505 checks the pairing).
HASH_EXEMPT: frozenset = frozenset({"ExperimentConfig.instrument"})


# ---------------------------------------------------------------------------
# Canonical config hashing
# ---------------------------------------------------------------------------


#: Exact types :func:`_canonical` returns unchanged.
_SCALARS = frozenset({str, int, float, bool, type(None)})


@functools.cache
def _dataclass_layout(cls: type) -> Optional[tuple]:
    """``None`` for a non-dataclass type, else the dataclass's hashed field
    names (``HASH_EXCLUDE`` removed), its ``HASH_OMIT_WHEN_UNSET`` set and
    its ``HASH_RETIRED`` pairs -- read once per type rather than once per
    value."""
    if not dataclasses.is_dataclass(cls):
        return None
    exclude = getattr(cls, "HASH_EXCLUDE", ())
    names = tuple(
        f.name for f in dataclasses.fields(cls) if f.name not in exclude
    )
    return (
        names,
        frozenset(getattr(cls, "HASH_OMIT_WHEN_UNSET", ())),
        getattr(cls, "HASH_RETIRED", ()),
    )


def _canonical(obj: object) -> object:
    """Reduce ``obj`` to a JSON-serialisable, order-stable structure.

    Dataclasses may declare a ``HASH_OMIT_WHEN_UNSET`` class attribute
    naming fields that are dropped from the canonical form while ``None``.
    This is the hash-compatibility convention for *extending* an existing
    config dataclass: a new optional field listed there leaves the
    canonical payload -- hence every cache key and fingerprint -- of all
    pre-extension configs byte-identical.

    A ``HASH_EXCLUDE`` class attribute names fields dropped from the
    canonical form *unconditionally* (today: ``ExperimentConfig.
    instrument``): observation knobs that never influence the simulated
    outcome, so configs differing only there must alias onto one cache
    entry on purpose.  Every excluded field must be justified in
    :data:`HASH_EXEMPT`.

    A ``HASH_RETIRED`` class attribute lists ``(name, value)`` pairs of
    deleted fields, emitted after the live ones: the payload -- hence every
    cache key -- stays what it was while the field existed at that value.
    """
    cls = type(obj)
    if cls in _SCALARS:
        return obj
    layout = _dataclass_layout(cls)
    if layout is not None:
        names, omit, retired = layout
        payload = {
            name: _canonical(value)
            for name in names
            for value in (getattr(obj, name),)
            if not (value is None and name in omit)
        }
        payload.update(retired)
        return payload
    if isinstance(obj, dict):
        return {
            str(k): _canonical(v)
            for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(obj, (set, frozenset)):
        return sorted((_canonical(v) for v in obj), key=repr)
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    return repr(obj)


def _dumps(payload: object) -> str:
    """Canonical JSON text of a :func:`_canonical` payload."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _digest(text: str) -> str:
    """The cache key of canonical JSON ``text``."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def config_json(config: ExperimentConfig) -> str:
    """The canonical JSON of ``config``: what :func:`config_hash` digests,
    and the store's ``config_json`` column."""
    return _dumps(_canonical(config))


def config_hash(config: ExperimentConfig) -> str:
    """Stable digest of a config: the cache key of the trial it describes.

    Two configs hash equally iff every declared field (including the nested
    DirQ configuration, scripted topology events, and any dynamic-scenario
    parameters) is equal, so the hash identifies the simulation outcome
    under the deterministic runner.

    Back-compatibility: fields added after a config class's original hash
    scheme shipped (``ExperimentConfig.scenario``, the ``area_*`` /
    group-mobility scenario fields) are declared in their dataclass's
    ``HASH_OMIT_WHEN_UNSET`` and *omitted* from the payload while unset,
    so every pre-extension config keeps the cache key it had before the
    fields existed -- old caches and fingerprints survive each extension
    unchanged.
    """
    return _digest(config_json(config))


# ---------------------------------------------------------------------------
# Trial specification and result
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class TrialSpec:
    """One declarative point of a sweep.

    The constructor snapshots (deep-copies) the configuration and computes
    the cache key immediately, so later mutation of the caller's config
    cannot change the trial's identity.  A spec's config is read-only,
    and the replicates of :func:`replicate_specs` share one config's
    nested members.

    :attr:`config_json`, the canonical JSON that ``key`` digests, is
    derived state: it is never pickled, so a spec pickles exactly its
    fields, and an unpickled spec rebuilds it on first read.
    """

    label: str
    config: ExperimentConfig
    group: str = ""
    tags: Dict[str, object] = dataclasses.field(default_factory=dict)
    key: str = dataclasses.field(init=False, default="")

    def __post_init__(self) -> None:
        self.config = copy.deepcopy(self.config)
        self._set_identity(config_json(self.config))

    @classmethod
    def _owning(
        cls,
        label: str,
        config: ExperimentConfig,
        group: str,
        tags: Dict[str, object],
        text: str,
    ) -> "TrialSpec":
        """A spec that takes ``config`` as it is -- no snapshot -- with
        ``text`` as its canonical JSON.  Only for a config that nothing
        else holds."""
        spec = cls.__new__(cls)
        spec.label = label
        spec.config = config
        spec.group = group
        spec.tags = tags
        spec._set_identity(text)
        return spec

    def _set_identity(self, text: str) -> None:
        self._config_json = text
        self.key = _digest(text)

    @property
    def config_json(self) -> str:
        """The canonical JSON of :attr:`config`, which :attr:`key` digests."""
        text = self.__dict__.get("_config_json")
        if text is None:  # unpickled: the pickle leaves it out
            text = self._config_json = _dumps(_canonical(self.config))
        return text

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state.pop("_config_json", None)
        return state


def replicate_specs(
    label: str,
    config: ExperimentConfig,
    count: int,
    group: str = "",
    tags: Optional[Dict[str, object]] = None,
) -> List[TrialSpec]:
    """``count`` replications of ``config`` with independent seeds.

    Replicate 0 **is** the base configuration (same seed, hence the key
    ``config_hash(config)``), so a trial cached by an earlier
    un-replicated run is reused when the sweep is later replicated;
    replicates 1..count-1 get independent seeds from
    :meth:`RandomStreams.derive_seed` and are reproducible from the base
    alone.  Every spec is stamped with ``base_key`` / ``base_label`` /
    ``replicate`` tags on top of ``tags``, which is what
    :func:`repro.metrics.stats.group_replicates` folds groups by.  The
    replicates share one deep copy of ``config``.
    """
    return _replicates(label, copy.deepcopy(config), count, group, tags)


def _replicates(
    label: str,
    config: ExperimentConfig,
    count: int,
    group: str,
    tags: Optional[Dict[str, object]],
) -> List[TrialSpec]:
    """:func:`replicate_specs` of a ``config`` that the specs may own:
    replicate 0 takes it, and replicate ``i`` is its ``replace(seed=...)``.

    ``config`` is canonicalised once; each replicate's canonical JSON is
    that payload with the replicate's seed.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    payload = _canonical(config)
    text = _dumps(payload)
    base_key = _digest(text)
    specs = []
    for i in range(count):
        replicate = config
        if i:
            seed = RandomStreams.derive_seed(config.seed, f"rep-{i}")
            replicate = config.replace(seed=seed)
            payload["seed"] = seed
            text = _dumps(payload)
        specs.append(
            TrialSpec._owning(
                label if i == 0 else f"{label} rep={i}",
                replicate,
                group,
                {
                    **(tags or {}),
                    "replicate": i,
                    "base_key": base_key,
                    "base_label": label,
                },
                text,
            )
        )
    return specs


@dataclasses.dataclass
class TrialResult(HeadlineSummaries):
    """Picklable measurements of one trial.

    Shares the summary API of :class:`ExperimentResult` (overshoot,
    accuracy, cost ratio, update series) without holding live simulator
    objects, so it can cross process boundaries and live in the cache.
    """

    spec: TrialSpec
    audit: QueryAudit
    ledger: NetworkLedger
    num_queries: int
    flooding_cost_per_query: float
    update_series: List[WindowPoint]
    breakdown: CostBreakdown
    per_query_costs: List[float]
    atc_delta_history: Dict[int, List[float]]
    alive_at_end: Set[NodeId]
    num_nodes: int
    #: Dynamic-scenario telemetry: the effective churn / battery-death /
    #: reactivation events applied during the run as ``(epoch, kind,
    #: node_id)`` tuples, and the number of mobility re-link rounds.  Both
    #: stay empty/zero for static runs so pre-scenario fingerprints are
    #: unchanged.
    scenario_events: List[tuple] = dataclasses.field(default_factory=list)
    num_relinks: int = 0
    runtime_seconds: float = 0.0
    from_cache: bool = False
    #: Observability payload (``repro.obs``): metric snapshots, phase
    #: profile, trace summary -- present only when the config's
    #: ``instrument`` flag asked for it.  Excluded from
    #: :meth:`fingerprint` and stripped before the result is cached
    #: (:meth:`~repro.experiments.store.ResultsStore.save_result`), so
    #: instrumentation can never leak into a determinism artefact.
    telemetry: Optional[dict] = None
    #: What the store's ``trials`` row needs of this trial -- its
    #: fingerprint and every store metric -- computed once, where the
    #: trial executed (:func:`~repro.experiments.store.store_summary`).
    #: It travels with the result through rebinding, the trial cache and
    #: process pools, so recording a cache-served trial reads nothing
    #: else; :meth:`fingerprint` never returns it.
    summary: Optional[StoreSummary] = dataclasses.field(
        default=None, compare=False, repr=False
    )

    @classmethod
    def from_experiment(
        cls, spec: TrialSpec, result: ExperimentResult, runtime_seconds: float = 0.0
    ) -> "TrialResult":
        """Distil a live :class:`ExperimentResult` into a portable record."""
        return cls(
            spec=spec,
            audit=result.audit,
            ledger=result.ledger,
            num_queries=result.num_queries,
            flooding_cost_per_query=result.flooding_cost_per_query,
            update_series=list(result.update_series),
            breakdown=result.breakdown,
            per_query_costs=list(result.per_query_costs),
            atc_delta_history=dict(result.atc_delta_history),
            alive_at_end=set(result.alive_at_end),
            num_nodes=result.num_nodes,
            scenario_events=list(result.scenario_events),
            num_relinks=result.num_relinks,
            runtime_seconds=runtime_seconds,
            telemetry=result.telemetry,
        )

    # -- convenience accessors ------------------------------------------------

    @property
    def label(self) -> str:
        return self.spec.label

    @property
    def config(self) -> ExperimentConfig:
        return self.spec.config

    @property
    def records(self) -> List[QueryRecord]:
        return self.audit.records

    # -- determinism ---------------------------------------------------------

    def fingerprint(self, *, include_key: bool = True) -> str:
        """Digest of every deterministic measurement of this trial.

        Two runs of the same spec must produce equal fingerprints no matter
        how many workers executed the batch; runtime and cache provenance
        are excluded.  ``include_key=False`` drops the config hash from the
        payload, leaving only what the trial measured: the measurement pins
        of ``tests/differential/`` and perfbench's reference digests use it,
        so a digest survives any change that moves no measurement.
        """
        payload = {
            "key": self.spec.key if include_key else None,
            "num_queries": self.num_queries,
            "flooding_cost_per_query": self.flooding_cost_per_query,
            "per_query_costs": self.per_query_costs,
            "breakdown": _canonical(self.breakdown),
            "series": [(p.window_start, p.value) for p in self.update_series],
            "alive": sorted(self.alive_at_end),
            "num_nodes": self.num_nodes,
            "atc": {
                str(nid): values
                for nid, values in sorted(self.atc_delta_history.items())
            },
            "ledger": sorted(
                (kind, count, cost)
                for kind, (count, cost) in self.ledger.breakdown_by_kind().items()
            ),
            "records": [
                (
                    r.query_id,
                    r.injection_epoch,
                    r.population,
                    sorted(r.sources),
                    sorted(r.should_receive),
                    sorted(r.received),
                    sorted(r.source_claims),
                )
                for r in self.audit.records
            ],
        }
        # Scenario telemetry enters the payload only when present, so the
        # fingerprints of scenario-free trials are byte-identical to what
        # they were before the scenario subsystem existed.
        if self.scenario_events:
            payload["scenario_events"] = [
                [int(epoch), kind, int(nid)]
                for epoch, kind, nid in self.scenario_events
            ]
        if self.num_relinks:
            payload["num_relinks"] = self.num_relinks
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _execute_trial(spec: TrialSpec) -> TrialResult:
    """Worker entry point: run one trial and distil its record."""
    start = time.perf_counter()
    result = run_experiment(spec.config)
    trial = TrialResult.from_experiment(
        spec, result, runtime_seconds=time.perf_counter() - start
    )
    # Lazy: the store imports CACHE_VERSION and _canonical from this module.
    from .store import store_summary

    trial.summary = store_summary(trial)
    return trial


# ---------------------------------------------------------------------------
# The batch runner
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class BatchStats:
    """Execution accounting for one :meth:`BatchRunner.run` call."""

    total: int = 0
    executed: int = 0
    cached: int = 0
    deduplicated: int = 0
    workers: int = 1
    runtime_seconds: float = 0.0


class BatchRunner:
    """Runs sweeps of :class:`TrialSpec` across worker processes.

    Parameters
    ----------
    max_workers:
        Concurrent trials; defaults to the machine's CPU count.  ``1``
        executes inline (no pool), which is also the fallback for
        single-trial batches.
    cache_dir:
        Directory of the result cache for a :meth:`run` that is given no
        store, or ``None`` for no cache.  Results are stored in the
        ``results`` table of ``<cache_dir>/campaigns.sqlite``
        (:class:`~repro.experiments.store.ResultsStore`), the file that
        also keeps the campaigns; a re-run of a sweep only executes trials
        missing from the cache.  Every read and write
        happens in the thread that calls :meth:`run`; workers never touch
        the store.
    executor:
        ``"process"`` (default) or ``"thread"``.  Threads exist for
        debugging (shared tracebacks); the simulator is pure Python, so
        real speed-ups need processes.
    """

    EXECUTORS = ("process", "thread")

    def __init__(
        self,
        max_workers: Optional[int] = None,
        cache_dir: Optional[os.PathLike] = None,
        executor: str = "process",
    ):
        if executor not in self.EXECUTORS:
            raise ValueError(
                f"executor must be one of {self.EXECUTORS}, got {executor!r}"
            )
        if max_workers is None:
            max_workers = os.cpu_count() or 1
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = int(max_workers)
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.executor = executor
        self.last_stats = BatchStats()

    # -- execution -----------------------------------------------------------

    def run(
        self,
        specs: Iterable[TrialSpec],
        progress: Optional[Callable[[TrialResult], None]] = None,
        store=None,
        served: Optional[Callable[[List[TrialResult]], None]] = None,
    ) -> List[TrialResult]:
        """Execute a sweep and return one result per spec, in input order.

        ``store`` is an open :class:`~repro.experiments.store.ResultsStore`
        of the caller's.  When given, it is the cache: the runner reads and
        writes through it (and leaves it open), and :attr:`cache_dir` is
        not read.

        Identical configurations (equal :attr:`TrialSpec.key`) are executed
        once and share a result.  ``progress`` is invoked exactly once per
        *input spec* (cache hits and deduplicated twins included), always
        with the result rebound to the spec it reports on -- a callback
        never sees a twin's label or tags.  Each result is rebound once,
        and the returned list holds those same objects.  Executed results
        are cached *before* their progress callback fires, so a callback
        that raises (or an interruption during one) cannot lose finished
        work.  ``served``, when given, receives every cache-served result
        in one call, once the sweep is classified: before any progress
        callback fires and before any trial executes.

        Interruption contract: if a trial fails or the run is interrupted
        (``KeyboardInterrupt``), every trial that already finished is still
        written to the cache -- including parallel futures that completed
        but had not been consumed yet -- before the exception propagates,
        and :attr:`last_stats` reflects the partial run.  A killed sweep
        therefore loses at most the trials that were in flight.
        """
        spec_list = list(specs)
        start = time.perf_counter()
        stats = BatchStats(total=len(spec_list), workers=self.max_workers)
        cache, own_cache = store, None
        results: List[Optional[TrialResult]] = [None] * len(spec_list)
        pending: List[TrialSpec] = []
        # key -> the index of every input spec that asked for it, in input
        # order.  A result produced (or cached) under one spec reaches each
        # of them rebound to that spec, so tag-based assembly never reads a
        # twin's metadata.
        waiters: Dict[str, List[int]] = {}

        def bind(result: TrialResult) -> List[TrialResult]:
            bound = []
            for index in waiters[result.spec.key]:
                results[index] = self._rebind(result, spec_list[index])
                bound.append(results[index])
            return bound

        def notify(bound: List[TrialResult]) -> None:
            if progress is not None:
                for rebound in bound:
                    progress(rebound)

        def on_result(result: TrialResult) -> None:
            stats.executed += 1
            if cache is not None:
                cache.save_result(result)
            notify(bind(result))

        try:
            if cache is None and self.cache_dir is not None and spec_list:
                # Lazy: the store imports CACHE_VERSION and _canonical from
                # this module.
                from .store import DEFAULT_STORE_NAME, ResultsStore

                cache = own_cache = ResultsStore(
                    self.cache_dir / DEFAULT_STORE_NAME
                )
            hits: List[TrialResult] = []
            for index, spec in enumerate(spec_list):
                if spec.key in waiters:
                    stats.deduplicated += 1
                    waiters[spec.key].append(index)
                    continue
                waiters[spec.key] = [index]
                cached = None if cache is None else cache.load_result(spec.key)
                if cached is not None:
                    stats.cached += 1
                    hits.append(cached)
                else:
                    pending.append(spec)
            # Cache hits are bound only after the whole sweep is classified,
            # so a deduplicated twin of a cached spec gets its result too
            # (its key is only known to be a duplicate then).
            bound = [rebound for hit in hits for rebound in bind(hit)]
            if served is not None and bound:
                served(bound)
            notify(bound)

            self._execute(pending, on_result)
        finally:
            if own_cache is not None:
                own_cache.close()
            stats.runtime_seconds = time.perf_counter() - start
            self.last_stats = stats
        return results

    @staticmethod
    def _rebind(result: TrialResult, spec: TrialSpec) -> TrialResult:
        """The result as seen by ``spec`` (shared payload, own metadata)."""
        if result.spec is spec:
            return result
        return dataclasses.replace(result, spec=spec)

    def _execute(
        self,
        pending: Sequence[TrialSpec],
        on_result: Callable[[TrialResult], None],
    ) -> None:
        """Execute ``pending``, delivering each finished trial to ``on_result``.

        ``on_result`` is the caching/accounting/progress hook of
        :meth:`run`; it runs in the coordinating thread.  On a trial
        failure every *other* trial that already completed is delivered
        first (so its result is cached) and then a ``RuntimeError`` naming
        the failing trial propagates; a ``KeyboardInterrupt`` likewise
        drains completed-but-unconsumed futures before re-raising, so an
        interrupted sweep loses only the trials still in flight.
        """
        if not pending:
            return
        workers = min(self.max_workers, len(pending))
        if workers == 1:
            for spec in pending:
                try:
                    result = _execute_trial(spec)
                except Exception as error:
                    raise RuntimeError(
                        f"trial {spec.label!r} (key {spec.key}) failed"
                    ) from error
                on_result(result)
            return
        pool_cls = (
            ProcessPoolExecutor if self.executor == "process" else ThreadPoolExecutor
        )
        with pool_cls(max_workers=workers) as pool:
            futures: Dict[Future, TrialSpec] = {
                pool.submit(_execute_trial, spec): spec for spec in pending
            }
            try:
                while futures:
                    done, _ = wait(futures, return_when=FIRST_EXCEPTION)
                    failure: Optional[tuple] = None
                    for future in done:
                        spec = futures.pop(future)
                        error = future.exception()
                        if error is not None:
                            # Keep delivering the siblings that finished in
                            # the same round; raise (the first) failure
                            # only once their results are safely cached.
                            if failure is None:
                                failure = (spec, error)
                            continue
                        on_result(future.result())
                    if failure is not None:
                        spec, error = failure
                        raise RuntimeError(
                            f"trial {spec.label!r} (key {spec.key}) failed"
                        ) from error
            except BaseException:
                # Completed-but-unconsumed futures (finished while the
                # failure/interrupt was being processed) still hold real
                # results: deliver them so they reach the cache before the
                # exception escapes.
                self._drain_completed(futures, on_result)
                raise
            finally:
                for future in futures:
                    future.cancel()

    @staticmethod
    def _drain_completed(
        futures: Dict[Future, TrialSpec],
        on_result: Callable[[TrialResult], None],
    ) -> None:
        """Deliver every already-finished, successful future in ``futures``."""
        for future in list(futures):
            if future.done() and not future.cancelled():
                futures.pop(future)
                if future.exception() is None:
                    on_result(future.result())
