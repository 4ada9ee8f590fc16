"""Resumable experiment campaigns over a declared parameter space.

A :class:`CampaignSpec` declares a whole experiment campaign -- scenarios ×
protocol variants × config sweep axes × replicates -- and expands it
**deterministically** into :class:`~repro.experiments.batch.TrialSpec`
cells.  The ``dirq`` cell of a scenario is exactly the config the scenario
registry builds, so every campaign that names a cell shares its cache key
(and therefore its cached result) with every other campaign that does.
:data:`PRESETS` names the campaigns behind the paper's figures and this
repository's ablations; :func:`preset` builds one.

:func:`run_missing` is the whole execution model: expand the spec and
hand every trial to one :class:`~repro.experiments.batch.BatchRunner` pass
whose cache is the :class:`~repro.experiments.store.ResultsStore`, so only
the trials the store holds no result for execute, and only the trials it
has not recorded are recorded.  Every executed trial is
upserted into the store atomically the moment it completes (the runner's
per-spec progress callback), so a killed process -- Ctrl-C, crash, a downed
host -- loses at most the trials that were in flight, and re-running the
campaign executes exactly the remainder.  The trials the runner serves from
its cache are recorded together, in one transaction, before anything
executes; an interruption there loses only rows that the next run serves
again without simulating.  The list of missing trials is taken once, when
the run starts: a later or resumed run skips every trial already recorded,
but two runs started together on one store repeat each other's work.

Determinism contract
--------------------
``CampaignSpec`` expansion is a pure function of the spec (row-major over
scenarios, protocols, sweep points in declared axis order, then
replicates), the campaign id is a content hash of the canonical spec, and
the store export orders rows by identity -- so the final JSON export of a
campaign is byte-identical whether it ran uninterrupted on one worker or
was interrupted and resumed across many.

The command line is ``python -m repro {run,status,report,cache}``
(:mod:`repro.__main__`); see ``docs/campaigns.md``.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import math
import re
import time
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..scenarios.registry import DEFAULT_SCENARIO_EPOCHS, get_scenario
from .batch import (
    BatchRunner,
    TrialResult,
    TrialSpec,
    _canonical,
    _dumps,
    _replicates,
)
from .config import ExperimentConfig
from .store import ResultsStore

Transform = Callable[[ExperimentConfig], ExperimentConfig]

#: The named protocol variants a campaign can cross scenarios with: name
#: -> (config transform, description).  ``dirq`` is the identity -- the
#: registry configs already run fixed-δ DirQ -- which is what makes the
#: ``dirq`` cell of every campaign share its cache key with every other.
_PROTOCOL_DEFS: Dict[str, Tuple[Transform, str]] = {
    "dirq": (lambda cfg: cfg, "registry config as-is (fixed-δ DirQ)"),
    "atc": (
        lambda cfg: cfg.with_atc(),
        "config.with_atc() -- Adaptive Threshold Control",
    ),
    "flooding": (
        lambda cfg: cfg.with_flooding(),
        "config.with_flooding() -- flooding baseline",
    ),
}

PROTOCOLS: Dict[str, Transform] = {
    name: transform for name, (transform, _) in _PROTOCOL_DEFS.items()
}

#: Parameterised variants, ``<form>=<number>``: form -> (transform
#: factory, description).
_PARAMETERISED: Dict[str, Tuple[Callable[[float], Transform], str]] = {
    "delta": (
        lambda x: lambda cfg: cfg.with_fixed_delta(x),
        "config.with_fixed_delta(X) -- fixed threshold of X % full scale",
    ),
    "atc-target": (
        lambda x: lambda cfg: cfg.with_atc(target_cost_ratio=x),
        "config.with_atc(target_cost_ratio=X) -- ATC with another target",
    ),
}

#: ``(variant, description)`` rows of the protocol catalogue.
PROTOCOL_CATALOGUE: Tuple[Tuple[str, str], ...] = tuple(
    (name, description) for name, (_, description) in _PROTOCOL_DEFS.items()
) + tuple(
    (f"{form}=X", description)
    for form, (_, description) in _PARAMETERISED.items()
)


def protocol_transform(name: str) -> Transform:
    """The config transform of protocol variant ``name``.

    Raises ``KeyError`` for an unknown variant and ``ValueError`` for a
    parameterised one whose value is not a number the transform accepts
    (``delta=0``, ``delta=x``, ``atc-target=1.5``).
    """
    if name in PROTOCOLS:
        return PROTOCOLS[name]
    form, sep, text = name.partition("=")
    if not sep or form not in _PARAMETERISED:
        raise KeyError(
            f"unknown protocol {name!r}; known: "
            + ", ".join(variant for variant, _ in PROTOCOL_CATALOGUE)
        )
    try:
        value = float(text)
        if not math.isfinite(value):
            raise ValueError(f"{text!r} is not finite")
        transform = _PARAMETERISED[form][0](value)
        transform(ExperimentConfig())  # the config layer validates X
    except ValueError as error:
        raise ValueError(f"protocol {name!r}: {error}") from None
    return transform


#: Config fields a sweep axis may range over: every scalar
#: :class:`ExperimentConfig` field.  ``seed`` is excluded (replication owns
#: seed derivation), ``protocol`` too (the protocol variants own it, as
#: they own ``dirq``; a swept protocol would run under another variant's
#: tag), compound fields (``dirq``, ``scenario``, ...) are excluded because
#: sweep values must stay canonical-JSON scalars, and hash-exempt fields
#: (``instrument``) are excluded because every value of such an axis hashes
#: to the same cache key -- the "axis" would collapse onto one trial.
_SWEEPABLE_FIELDS = frozenset(
    f.name for f in dataclasses.fields(ExperimentConfig)
) - {
    "seed",
    "protocol",
    "dirq",
    "scenario",
    "topology_events",
    "initially_dead",
    "sensor_types",
    "sensors_per_node",
    "phenomena_specs",
    "instrument",
}

_SCALAR_TYPES = (bool, int, float, str)


@dataclasses.dataclass(frozen=True)
class CampaignSpec:
    """A declared parameter space: scenarios × protocols × sweeps × replicates.

    ``sweep`` maps :class:`ExperimentConfig` field names to the values that
    axis ranges over (e.g. ``{"target_coverage": (0.2, 0.4, 0.6)}``); the
    cross product of all axes is applied to every (scenario, protocol)
    pair.  ``protocols`` names variants of :data:`PROTOCOLS` or the
    parameterised ``delta=X`` / ``atc-target=X``.  ``num_epochs`` is
    special-cased through the scenario factory so length-proportional
    scenario dynamics keep their shape.
    """

    name: str
    scenarios: Tuple[str, ...]
    protocols: Tuple[str, ...] = ("dirq",)
    replicates: int = 1
    num_epochs: int = DEFAULT_SCENARIO_EPOCHS
    seed: int = 1
    sweep: Tuple[Tuple[str, Tuple[object, ...]], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        object.__setattr__(self, "protocols", tuple(self.protocols))
        sweep = tuple(
            (str(field), tuple(values))
            for field, values in (
                self.sweep.items()
                if isinstance(self.sweep, Mapping)
                else self.sweep
            )
        )
        object.__setattr__(self, "sweep", sweep)
        if not self.name or not self.name.strip():
            raise ValueError("campaign name must be non-empty")
        for kind, names in (
            ("scenario", self.scenarios),
            ("protocol", self.protocols),
        ):
            if not names:
                raise ValueError(f"at least one {kind} is required")
            dupes = sorted({n for n in names if names.count(n) > 1})
            if dupes:
                raise ValueError(
                    f"duplicate {kind} names: {', '.join(dupes)}"
                )
        for scenario in self.scenarios:
            get_scenario(scenario)  # raises KeyError with the catalogue
        for proto in self.protocols:
            protocol_transform(proto)
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.num_epochs < 1:
            raise ValueError("num_epochs must be >= 1")
        seen_fields = set()
        for field, values in sweep:
            if field not in _SWEEPABLE_FIELDS:
                raise ValueError(
                    f"cannot sweep {field!r}; sweepable fields: "
                    f"{', '.join(sorted(_SWEEPABLE_FIELDS))}"
                )
            if field in seen_fields:
                raise ValueError(f"duplicate sweep axis {field!r}")
            seen_fields.add(field)
            if not values:
                raise ValueError(f"sweep axis {field!r} has no values")
            for value in values:
                if not isinstance(value, _SCALAR_TYPES):
                    raise ValueError(
                        f"sweep axis {field!r}: values must be scalars, "
                        f"got {value!r}"
                    )
            if len(set(values)) != len(values):
                raise ValueError(f"sweep axis {field!r} has duplicate values")

    # -- identity ------------------------------------------------------------

    def to_jsonable(self) -> Dict[str, object]:
        """Round-trippable JSON payload (the store's ``spec_json``)."""
        return {
            "name": self.name,
            "scenarios": list(self.scenarios),
            "protocols": list(self.protocols),
            "replicates": self.replicates,
            "num_epochs": self.num_epochs,
            "seed": self.seed,
            "sweep": [
                {"field": field, "values": list(values)}
                for field, values in self.sweep
            ],
        }

    @classmethod
    def from_jsonable(cls, payload: Mapping[str, object]) -> "CampaignSpec":
        return cls(
            name=str(payload["name"]),
            scenarios=tuple(payload["scenarios"]),
            protocols=tuple(payload["protocols"]),
            replicates=int(payload["replicates"]),
            num_epochs=int(payload["num_epochs"]),
            seed=int(payload["seed"]),
            sweep=tuple(
                (str(axis["field"]), tuple(axis["values"]))
                for axis in payload.get("sweep", ())
            ),
        )

    @functools.cached_property
    def spec_json(self) -> str:
        """Canonical JSON of the spec (what the campaign id hashes)."""
        return _dumps(_canonical(self.to_jsonable()))

    @functools.cached_property
    def campaign_id(self) -> str:
        """``<name-slug>-<spec-hash>``: stable, content-addressed identity.

        Two invocations declaring the same parameter space resolve to the
        same campaign (and hence resume each other); changing any knob
        yields a fresh campaign that shares only the cached trials.
        """
        slug = re.sub(r"[^A-Za-z0-9_.-]+", "-", self.name.strip())
        digest = hashlib.sha256(self.spec_json.encode("utf-8")).hexdigest()[:12]
        return f"{slug}-{digest}"

    # -- expansion -----------------------------------------------------------

    def sweep_points(self) -> List[Dict[str, object]]:
        """Cross product of the sweep axes, axes in declared order.

        No axes -> one empty point (the bare scenario × protocol cell).
        """
        points: List[Dict[str, object]] = [{}]
        for field, values in self.sweep:
            points = [
                dict(point, **{field: value})
                for point in points
                for value in values
            ]
        return points

    @property
    def total_trials(self) -> int:
        return (
            len(self.scenarios)
            * len(self.protocols)
            * len(self.sweep_points())
            * self.replicates
        )

    def trial_specs(self) -> List[TrialSpec]:
        """The full expansion: one :class:`TrialSpec` per replicate of
        every campaign cell.

        Row-major over scenarios → protocols → sweep points → replicates.
        The ``dirq``, sweep-free cell of a scenario is byte-identical to
        what :func:`repro.scenarios.registry.scenario_spec` builds, so
        campaign trials share cache entries with it; the ``campaign`` tag
        rides along in the spec tags (never the config), leaving cache keys
        untouched.  Each cell builds one fresh config, which its replicates
        share without a copy, and canonicalises it once.
        """
        campaign_id = self.campaign_id
        transforms = [
            (proto, protocol_transform(proto)) for proto in self.protocols
        ]
        points = self.sweep_points()
        specs: List[TrialSpec] = []
        for scenario in self.scenarios:
            definition = get_scenario(scenario)
            for proto, transform in transforms:
                for point in points:
                    num_epochs = int(point.get("num_epochs", self.num_epochs))
                    config = transform(definition.factory(num_epochs, self.seed))
                    rest = {
                        k: v for k, v in point.items() if k != "num_epochs"
                    }
                    if rest:
                        config = config.replace(**rest)
                    label = f"{scenario}/{proto}"
                    if point:
                        label += " " + " ".join(
                            f"{k}={v}" for k, v in point.items()
                        )
                    specs.extend(
                        _replicates(
                            label,
                            config,
                            self.replicates,
                            group="campaign",
                            tags={
                                "campaign": campaign_id,
                                "scenario": scenario,
                                "scenario_kind": definition.kind,
                                "protocol": proto,
                                "sweep": dict(point),
                            },
                        )
                    )
        # The store keys a campaign's trials by config hash, so two cells
        # of one config (``atc`` and ``atc-target=0.5``, ``dirq`` and
        # ``delta=5``) would share one row and never both count as done.
        labels: Dict[str, str] = {}
        for trial in specs:
            other = labels.setdefault(trial.key, trial.label)
            if other != trial.label:
                raise ValueError(
                    f"cells {other!r} and {trial.label!r} configure "
                    "identical trials"
                )
        return specs


# ---------------------------------------------------------------------------
# Presets: the paper's figures and the ablations
# ---------------------------------------------------------------------------

#: Epochs and replicates of a ``python -m repro run`` unless overridden --
#: short of the paper's 20 000 epochs, so a preset finishes in minutes on
#: one core (``--epochs 20000`` runs paper length).
PRESET_EPOCHS = 600
PRESET_REPLICATES = 5

#: The named campaigns: name -> (protocol variants, sweep axes), each on
#: the §7 network (``static-paper``).  A preset's campaign carries the
#: preset's name, which is how the report finds its figure section.
PRESETS: Dict[str, Tuple[Tuple[str, ...], Tuple[Tuple[str, tuple], ...]]] = {
    "fig5": (
        ("delta=1", "delta=3", "delta=5", "delta=7", "delta=9"),
        (("target_coverage", (0.4, 0.6)),),
    ),
    "fig6": (("delta=3", "delta=5", "delta=9", "atc"), ()),
    "fig7": (
        ("delta=3", "delta=5", "delta=9", "atc"),
        (("target_coverage", (0.2,)),),
    ),
    "headline": (("atc", "flooding"), ()),
    "loss": (("atc",), (("channel_loss", (0.0, 0.05, 0.1, 0.2, 0.5, 1.0)),)),
    "atc-target": (
        ("atc-target=0.35", "atc-target=0.5", "atc-target=0.65"),
        (),
    ),
}


def preset(
    name: str,
    num_epochs: int = PRESET_EPOCHS,
    replicates: int = PRESET_REPLICATES,
    seed: int = 1,
) -> CampaignSpec:
    """The campaign of preset ``name`` (a key of :data:`PRESETS`)."""
    protocols, sweep = PRESETS[name]
    return CampaignSpec(
        name=name,
        scenarios=("static-paper",),
        protocols=protocols,
        replicates=replicates,
        num_epochs=num_epochs,
        seed=seed,
        sweep=sweep,
    )


# ---------------------------------------------------------------------------
# Execution: run only the gaps
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class CampaignStats:
    """Accounting for one :func:`run_missing` call.

    ``scheduled`` counts the trials the store had not recorded, ``cached``
    those of them the cache served, ``executed`` every trial that ran (a
    recorded one whose cached result was pruned included) and ``stored``
    the rows written.
    """

    campaign_id: str
    total: int
    complete_before: int
    scheduled: int
    executed: int = 0
    cached: int = 0
    deduplicated: int = 0
    stored: int = 0
    runtime_seconds: float = 0.0


def run_missing(
    spec: CampaignSpec,
    store: ResultsStore,
    runner: Optional[BatchRunner] = None,
    progress=None,
) -> CampaignStats:
    """Record every campaign trial the store has no record of.

    Registers the campaign (idempotent) and hands the whole deterministic
    expansion to one ``runner.run`` call whose cache is ``store``.  A trial
    in the cache -- recorded by this campaign or run earlier by another --
    is served without re-execution; a recorded trial whose cached result
    was pruned executes again.  Only the trials missing from
    :meth:`ResultsStore.completed_keys` are recorded: the served ones all
    in one transaction, before any progress callback fires and before any
    trial executes, and each executed one the moment it finishes, in its
    own transaction (via the runner's per-spec progress hook -- *before*
    the caller's ``progress`` fires).  Interruption at any point therefore
    loses at most the in-flight trials, plus served rows that the next run
    serves again.  ``progress`` sees every trial of the campaign once.

    On interruption (``KeyboardInterrupt`` or a failing trial) the partial
    accounting is still written to ``runner.last_stats`` and every finished
    trial is in the store; re-raising is deliberate -- the caller decides
    whether "resume later" is an error.
    """
    runner = runner if runner is not None else BatchRunner()
    campaign_id = spec.campaign_id
    all_specs = spec.trial_specs()
    store.register_campaign(
        campaign_id, spec.name, spec.spec_json, spec.total_trials
    )
    recorded = store.completed_keys(campaign_id)
    scheduled = sum(trial.key not in recorded for trial in all_specs)
    stats = CampaignStats(
        campaign_id=campaign_id,
        total=len(all_specs),
        complete_before=len(all_specs) - scheduled,
        scheduled=scheduled,
    )

    def on_served(results: List[TrialResult]) -> None:
        fresh = [result for result in results if result.spec.key not in recorded]
        with store.transaction():
            for result in fresh:
                store.record_trial(campaign_id, result)
        recorded.update(result.spec.key for result in fresh)
        stats.cached += len(fresh)
        stats.stored += len(fresh)

    def on_trial(result: TrialResult) -> None:
        if result.spec.key not in recorded:
            store.record_trial(campaign_id, result)
            stats.stored += 1
        if progress is not None:
            progress(result)

    start = time.perf_counter()
    try:
        runner.run(all_specs, progress=on_trial, store=store, served=on_served)
    finally:
        batch_stats = runner.last_stats
        stats.executed = batch_stats.executed
        stats.deduplicated = batch_stats.deduplicated
        stats.runtime_seconds = time.perf_counter() - start
    return stats


def campaign_status(
    spec: CampaignSpec, store: ResultsStore
) -> List[Tuple[str, str, int, int]]:
    """Per-(scenario, protocol) completion: ``(scenario, protocol, done, total)``.

    Row order follows the spec's declared scenario/protocol order.
    """
    done = store.completed_keys(spec.campaign_id)
    counts: Dict[Tuple[str, str], List[int]] = {}
    for trial in spec.trial_specs():
        cell = (str(trial.tags["scenario"]), str(trial.tags["protocol"]))
        bucket = counts.setdefault(cell, [0, 0])
        bucket[1] += 1
        if trial.key in done:
            bucket[0] += 1
    return [
        (scenario, protocol, done_n, total_n)
        for (scenario, protocol), (done_n, total_n) in counts.items()
    ]


def stored_results(
    spec: CampaignSpec, store: ResultsStore
) -> Tuple[List[TrialResult], int]:
    """The cached results of a campaign's recorded trials; executes nothing.

    Results come in expansion order, each rebound to its campaign spec, so
    they group exactly as a run's do.  The second value counts recorded
    trials whose cached result is gone (pruned from the trial cache).
    """
    done = store.completed_keys(spec.campaign_id)
    results: List[TrialResult] = []
    lost = 0
    for trial in spec.trial_specs():
        if trial.key not in done:
            continue
        cached = store.load_result(trial.key)
        if cached is None:
            lost += 1
        else:
            results.append(dataclasses.replace(cached, spec=trial))
    return results, lost
