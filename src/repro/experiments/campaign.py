"""Resumable experiment campaigns over a declared parameter space.

A :class:`CampaignSpec` declares a whole experiment campaign -- scenarios ×
protocol variants × config sweep axes × replicates -- and expands it
**deterministically** into the same :class:`~repro.experiments.batch.
TrialSpec` cells the grid and scenario CLIs build, so campaign trials share
cache keys (and therefore cached results) with every other front end.

:func:`run_missing` is the whole execution model: expand the spec, ask the
:class:`~repro.experiments.store.ResultsStore` which trials are already
recorded, and run only the gaps through a
:class:`~repro.experiments.batch.BatchRunner`.  Every finished trial is
upserted into the store atomically the moment it completes (the runner's
per-spec progress callback), so a killed process -- Ctrl-C, crash, a downed
host -- loses at most the trials that were in flight, and the next
``--resume`` executes exactly the remainder.  The list of missing trials is
taken once, when the run starts: a later or resumed run skips every trial
already recorded, but two runs started together on one store repeat each
other's work.

Determinism contract
--------------------
``CampaignSpec`` expansion is a pure function of the spec (row-major over
scenarios, protocols, sweep points in declared axis order, then
replicates), the campaign id is a content hash of the canonical spec, and
the store export orders rows by identity -- so the final JSON export of a
campaign is byte-identical whether it ran uninterrupted on one worker or
was interrupted and resumed across many.

CLI
---
``python -m repro.experiments.campaign`` with one of ``--new`` /
``--resume`` / ``--status`` / ``--query``; see ``--help`` and
``docs/campaigns.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import re
import sys
import time
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..metrics.report import (
    format_progress,
    format_replicate_table,
    format_table,
)
from ..scenarios.registry import (
    DEFAULT_SCENARIO_EPOCHS,
    get_scenario,
    scenario_names,
)
from .batch import (
    BatchRunner,
    TrialSpec,
    _canonical,
    resolve_cache_dir,
)
from .config import ExperimentConfig
from .grid import PROTOCOLS
from .store import DEFAULT_STORE_NAME, METRIC_COLUMNS, ResultsStore

#: Config fields a sweep axis may range over: every scalar
#: :class:`ExperimentConfig` field.  ``seed`` is excluded (replication owns
#: seed derivation), compound fields (``dirq``, ``scenario``, ...) are
#: excluded because sweep values must stay canonical-JSON scalars, and
#: hash-exempt fields (``instrument``) are excluded because every value of
#: such an axis hashes to the same cache key -- the "axis" would collapse
#: onto one trial.
_SWEEPABLE_FIELDS = frozenset(
    f.name
    for f in dataclasses.fields(ExperimentConfig)
    if f.name not in ("seed",)
) - {
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
    pair.  ``num_epochs`` is special-cased through the scenario factory so
    length-proportional scenario dynamics keep their shape, exactly as the
    scenario CLI's ``--epochs`` does.
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
            if proto not in PROTOCOLS:
                raise KeyError(
                    f"unknown protocol {proto!r}; "
                    f"known: {', '.join(sorted(PROTOCOLS))}"
                )
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

    @property
    def spec_json(self) -> str:
        """Canonical JSON of the spec (what the campaign id hashes)."""
        return json.dumps(
            _canonical(self.to_jsonable()), sort_keys=True, separators=(",", ":")
        )

    @property
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
        """The full expansion: one :class:`TrialSpec` per campaign cell.

        Row-major over scenarios → protocols → sweep points → replicates.
        The ``dirq``, sweep-free cell of a scenario is byte-identical to
        what :func:`repro.scenarios.registry.scenario_spec` (and the grid)
        builds, so campaign trials share cache entries with both; the
        ``campaign`` tag rides along in the spec tags (never the config),
        leaving cache keys untouched.
        """
        campaign_id = self.campaign_id
        specs: List[TrialSpec] = []
        for scenario in self.scenarios:
            definition = get_scenario(scenario)
            for proto in self.protocols:
                transform = PROTOCOLS[proto]
                for point in self.sweep_points():
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
                    base = TrialSpec(
                        label=label,
                        config=config,
                        group="campaign",
                        tags={
                            "campaign": campaign_id,
                            "scenario": scenario,
                            "scenario_kind": definition.kind,
                            "protocol": proto,
                            "sweep": dict(point),
                        },
                    )
                    specs.extend(base.replicates(self.replicates))
        return specs


# ---------------------------------------------------------------------------
# Execution: run only the gaps
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class CampaignStats:
    """Accounting for one :func:`run_missing` call."""

    campaign_id: str
    total: int
    complete_before: int
    scheduled: int
    executed: int = 0
    cached: int = 0
    deduplicated: int = 0
    stored: int = 0
    runtime_seconds: float = 0.0

    @property
    def complete_after(self) -> int:
        return self.complete_before + self.stored


def run_missing(
    spec: CampaignSpec,
    store: ResultsStore,
    runner: Optional[BatchRunner] = None,
    progress=None,
) -> CampaignStats:
    """Execute exactly the campaign trials the store has no record of.

    Registers the campaign (idempotent), diffs the deterministic expansion
    against :meth:`ResultsStore.completed_keys`, and runs only the missing
    specs.  Each trial is upserted into the store the moment it finishes
    (atomically, via the runner's per-spec progress hook -- *before* the
    caller's ``progress`` fires), so interruption at any point loses at
    most the in-flight trials; trials already present in the runner's
    cache (e.g. run earlier by the scenario or grid CLI) are served from it
    without re-execution and recorded in the store all the same.

    On interruption (``KeyboardInterrupt`` or a failing trial) the partial
    accounting is still written to ``runner.last_stats`` and every finished
    trial is in the store; re-raising is deliberate -- the caller decides
    whether "resume later" is an error.
    """
    runner = runner if runner is not None else BatchRunner()
    campaign_id = spec.campaign_id
    store.register_campaign(
        campaign_id, spec.name, spec.spec_json, spec.total_trials
    )
    all_specs = spec.trial_specs()
    done = store.completed_keys(campaign_id)
    missing = [s for s in all_specs if s.key not in done]
    stats = CampaignStats(
        campaign_id=campaign_id,
        total=len(all_specs),
        complete_before=len(all_specs) - len(missing),
        scheduled=len(missing),
    )

    def on_trial(result) -> None:
        store.record_trial(campaign_id, result)
        stats.stored += 1
        if progress is not None:
            progress(result)

    start = time.perf_counter()
    try:
        runner.run(missing, progress=on_trial)
    finally:
        batch_stats = runner.last_stats
        stats.executed = batch_stats.executed
        stats.cached = batch_stats.cached
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


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _parse_sweep_value(text: str) -> object:
    lowered = text.strip().lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for parser in (int, float):
        try:
            return parser(text)
        except ValueError:
            continue
    return text.strip()


def _parse_sweep_args(args: Optional[Sequence[str]]):
    """``--sweep field=v1,v2`` flags -> the spec's sweep tuple."""
    sweep = []
    for item in args or ():
        if "=" not in item:
            raise ValueError(
                f"--sweep expects field=v1,v2,... got {item!r}"
            )
        field, _, values_text = item.partition("=")
        values = tuple(
            _parse_sweep_value(v) for v in values_text.split(",") if v.strip()
        )
        sweep.append((field.strip(), values))
    return tuple(sweep)


def _csv(value: str) -> List[str]:
    return [part.strip() for part in value.split(",") if part.strip()]


def _spec_from_args(args: argparse.Namespace) -> CampaignSpec:
    if args.scenarios is None:
        raise ValueError("--scenarios is required to define a campaign")
    return CampaignSpec(
        name=args.name,
        scenarios=tuple(_csv(args.scenarios)),
        protocols=tuple(_csv(args.protocols)),
        replicates=args.replicates,
        num_epochs=args.epochs,
        seed=args.seed,
        sweep=_parse_sweep_args(args.sweep),
    )


def _print_run_summary(action: str, stats: CampaignStats) -> None:
    print(
        f"campaign {stats.campaign_id} ({action}): "
        f"{stats.complete_before}/{stats.total} trials already stored | "
        f"scheduled {stats.scheduled}: executed {stats.executed}, "
        f"cache-served {stats.cached}, deduplicated {stats.deduplicated} | "
        f"stored now {stats.complete_after}/{stats.total} | "
        f"wall {stats.runtime_seconds:.2f}s"
    )


def _print_status(spec: CampaignSpec, store: ResultsStore) -> int:
    rows = campaign_status(spec, store)
    done = sum(r[2] for r in rows)
    total = sum(r[3] for r in rows)
    print(
        format_table(
            headers=["scenario", "protocol", "done", "total", "progress"],
            rows=[
                (scenario, protocol, d, t, format_progress(d, t))
                for scenario, protocol, d, t in rows
            ],
            title=(
                f"campaign {spec.campaign_id}: "
                f"{format_progress(done, total)} trials complete"
            ),
        )
    )
    return done


def _write_exports(
    args: argparse.Namespace, spec: CampaignSpec, store: ResultsStore
) -> None:
    if args.export:
        payload = store.export_jsonable(spec.campaign_id)
        path = Path(args.export)
        path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        print(f"JSON export written to {path}")
    if args.markdown:
        groups = store.replicate_groups(spec.campaign_id)
        table = format_replicate_table(
            groups,
            metrics=list(METRIC_COLUMNS),
            title=None,
        )
        text = (
            f"# Campaign `{spec.campaign_id}`\n\n"
            f"{len(spec.scenarios)} scenarios × {len(spec.protocols)} "
            f"protocols × {len(spec.sweep_points())} sweep points × "
            f"{spec.replicates} replicates = {spec.total_trials} trials "
            f"({spec.num_epochs} epochs, seed {spec.seed}).\n\n"
            f"```\n{table}\n```\n"
        )
        Path(args.markdown).write_text(text)
        print(f"markdown report written to {args.markdown}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=(
            "Resumable experiment campaigns: declare a scenario × protocol "
            "× sweep × replicate space, run only the trials missing from "
            "the results store, and query/export what is recorded."
        )
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--new",
        action="store_true",
        help="register the declared campaign and run it to completion",
    )
    mode.add_argument(
        "--resume",
        action="store_true",
        help=(
            "re-open a registered campaign (--campaign, or the same "
            "defining flags) and run only the missing trials"
        ),
    )
    mode.add_argument(
        "--status",
        action="store_true",
        help=(
            "report per-cell completion of a campaign (--campaign), or "
            "list every registered campaign"
        ),
    )
    mode.add_argument(
        "--query",
        action="store_true",
        help=(
            "print stored trial rows of a campaign (--campaign), "
            "filterable by --scenario/--protocol/--replicate"
        ),
    )
    parser.add_argument(
        "--campaign",
        default=None,
        metavar="ID_OR_NAME",
        help="registered campaign id (or unique name) to operate on",
    )
    parser.add_argument(
        "--name", default="campaign", help="campaign name (default: campaign)"
    )
    parser.add_argument(
        "--scenarios",
        default=None,
        help=(
            "comma-separated registered scenario names "
            f"(registry: {', '.join(scenario_names())})"
        ),
    )
    parser.add_argument(
        "--protocols",
        default="dirq",
        help=(
            "comma-separated protocol variants "
            f"(default: dirq; known: {', '.join(sorted(PROTOCOLS))})"
        ),
    )
    parser.add_argument(
        "--replicates",
        type=int,
        default=1,
        help="independent seeds per cell (default: 1)",
    )
    parser.add_argument(
        "--epochs",
        type=int,
        default=DEFAULT_SCENARIO_EPOCHS,
        help=f"epochs per trial (default: {DEFAULT_SCENARIO_EPOCHS})",
    )
    parser.add_argument(
        "--seed", type=int, default=1, help="base master seed (default: 1)"
    )
    parser.add_argument(
        "--sweep",
        action="append",
        default=None,
        metavar="FIELD=V1,V2,...",
        help=(
            "add a config sweep axis (repeatable), e.g. "
            "--sweep target_coverage=0.2,0.4,0.6"
        ),
    )
    parser.add_argument(
        "--scenario",
        default=None,
        help="with --query: filter rows to one scenario",
    )
    parser.add_argument(
        "--protocol",
        default=None,
        help="with --query: filter rows to one protocol variant",
    )
    parser.add_argument(
        "--replicate",
        type=int,
        default=None,
        help="with --query: filter rows to one replicate index",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=(
            "directory of the results store "
            f"<cache-dir>/{DEFAULT_STORE_NAME}, which holds the campaigns "
            "and the trial cache (default: $REPRO_CACHE_DIR or "
            ".repro-cache); campaigns compose with the scenario/grid CLIs "
            "through it"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default: CPU count)",
    )
    parser.add_argument(
        "--export",
        default=None,
        metavar="PATH",
        help="write the deterministic JSON export of the stored results",
    )
    parser.add_argument(
        "--markdown",
        default=None,
        metavar="PATH",
        help="write the replicate-summary table as a markdown report",
    )
    parser.add_argument(
        "--require-complete",
        action="store_true",
        help=(
            "exit non-zero unless every declared trial is in the store "
            "(CI guard)"
        ),
    )
    args = parser.parse_args(argv)

    cache_dir = resolve_cache_dir(args.cache_dir)
    store_path = Path(cache_dir) / DEFAULT_STORE_NAME
    with ResultsStore(store_path) as store:
        # --status with no campaign reference: list everything and exit.
        if args.status and args.campaign is None and args.scenarios is None:
            rows = [
                (
                    row.campaign_id,
                    row.name,
                    store.count(row.campaign_id),
                    row.total_trials,
                    format_progress(
                        store.count(row.campaign_id), row.total_trials
                    ),
                )
                for row in store.campaigns()
            ]
            if not rows:
                print(f"store {store_path}: no campaigns registered")
                return 1 if args.require_complete else 0
            print(
                format_table(
                    headers=["campaign", "name", "done", "total", "progress"],
                    rows=rows,
                    title=f"store {store_path}: {len(rows)} campaigns",
                )
            )
            incomplete = any(done != total for _, _, done, total, _ in rows)
            return 1 if (args.require_complete and incomplete) else 0

        # Resolve the campaign spec: by reference from the store, or from
        # the defining flags.
        try:
            if args.campaign is not None:
                row = store.resolve_campaign(args.campaign)
                spec = CampaignSpec.from_jsonable(row.spec_jsonable)
            else:
                spec = _spec_from_args(args)
        except (KeyError, ValueError) as error:
            print(f"error: {error.args[0]}", file=sys.stderr)
            return 2

        campaign_id = spec.campaign_id
        if args.new and store.campaign(campaign_id) is not None:
            print(
                f"error: campaign {campaign_id} already exists; "
                "use --resume (or --status) instead",
                file=sys.stderr,
            )
            return 2
        if args.resume and store.campaign(campaign_id) is None:
            print(
                f"error: campaign {campaign_id} is not registered in "
                f"{store_path}; use --new to create it",
                file=sys.stderr,
            )
            return 2

        if args.new or args.resume:
            from ..obs.progress import RunTelemetry

            telemetry = RunTelemetry()
            runner = BatchRunner(
                max_workers=args.workers,
                cache_dir=cache_dir,
                telemetry=telemetry,
            )
            action = "new" if args.new else "resume"
            try:
                stats = run_missing(spec, store, runner=runner)
            except KeyboardInterrupt:
                done = store.count(campaign_id)
                print()
                print(
                    f"interrupted: campaign {campaign_id} has "
                    f"{done}/{spec.total_trials} trials stored in "
                    f"{store_path}; finish it with\n"
                    f"  python -m repro.experiments.campaign --resume "
                    f"--campaign {campaign_id} --cache-dir {cache_dir}",
                    file=sys.stderr,
                )
                return 130
            _print_run_summary(action, stats)
            print(telemetry.render())
            print()
            _print_status(spec, store)
            _write_exports(args, spec, store)
        elif args.status:
            done = _print_status(spec, store)
            _write_exports(args, spec, store)
            if args.require_complete and done != spec.total_trials:
                print(
                    f"FAIL: --require-complete but only {done}/"
                    f"{spec.total_trials} trials stored",
                    file=sys.stderr,
                )
                return 1
            return 0
        elif args.query:
            rows = store.query(
                campaign_id,
                scenario=args.scenario,
                protocol=args.protocol,
                replicate=args.replicate,
            )
            print(
                format_table(
                    headers=["scenario", "protocol", "sweep", "rep"]
                    + list(METRIC_COLUMNS),
                    rows=[
                        [
                            row["scenario"],
                            row["protocol"],
                            row["sweep_json"],
                            row["replicate"],
                        ]
                        + [float(row[name]) for name in METRIC_COLUMNS]
                        for row in rows
                    ],
                    float_format="{:.3f}",
                    title=(
                        f"campaign {campaign_id}: {len(rows)} stored trials"
                    ),
                )
            )
            _write_exports(args, spec, store)

        if args.require_complete:
            done = store.count(campaign_id)
            if done != spec.total_trials:
                print(
                    f"FAIL: --require-complete but only {done}/"
                    f"{spec.total_trials} trials stored",
                    file=sys.stderr,
                )
                return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
