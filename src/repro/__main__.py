"""The front door: ``python -m repro {run,status,report,cache,trial}``.

Every sweep is a campaign (:class:`~repro.experiments.campaign.CampaignSpec`)
over one SQLite store, ``<cache-dir>/campaigns.sqlite``, which is both the
trial cache and the campaigns' results:

* ``run`` registers a campaign -- a named preset (``fig5``, ``fig6``,
  ``fig7``, ``headline``, ``loss``, ``atc-target``), an ad-hoc one from
  ``--scenarios/--protocols/--sweep``, or a registered one by id or name
  -- runs the trials the store lacks, and renders the report.  Re-running
  the same command after an interruption executes only the remainder;
* ``report`` renders the same report from the store and executes nothing;
* ``status`` shows a campaign's per-cell progress, or lists every campaign;
* ``cache`` lists or prunes the trial cache;
* ``trial`` runs one instrumented trial of a registered scenario (or
  ``headline``, the ``headline`` preset's ATC trial) outside any store and
  renders its phase profile and metric snapshot, with an optional Chrome
  trace (loadable in Perfetto) and raw tracer records.

The report has three sections: the replicate table (mean ± CI per cell of
every stored metric, plus recovery after the first disruption), the
degradation of every cell against its ``static-paper`` twin when the
campaign holds one, and a preset's figure.  ``--json`` writes the store's
export plus the replicate groups the report renders -- no runtimes,
timestamps or cache provenance -- so it is byte-identical across worker
counts, interruptions, and ``run`` versus ``report``.  A trial's
``--json`` holds only metric counters and histograms, phase call counts,
trace category counts and the fingerprint -- measured durations appear in
the console and markdown output alone -- so it is byte-identical across
re-runs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .experiments import fig5_accuracy, fig6_updates, fig7_overshoot, headline
from .experiments.batch import (
    CACHE_VERSION,
    BatchRunner,
    TrialResult,
    TrialSpec,
    resolve_cache_dir,
)
from .experiments.campaign import (
    PRESET_EPOCHS,
    PRESET_REPLICATES,
    PRESETS,
    PROTOCOL_CATALOGUE,
    CampaignSpec,
    campaign_status,
    preset,
    run_missing,
    stored_results,
)
from .experiments.store import (
    DEFAULT_STORE_NAME,
    METRIC_COLUMNS,
    STORE_METRICS,
    ResultsStore,
    current_summary,
)
from .experiments.runner import ExperimentRunner
from .metrics.report import (
    format_key_values,
    format_markdown_table,
    format_progress,
    format_replicate_table,
    format_table,
)
from .metrics.resilience import (
    DEFAULT_RECOVERY_TOLERANCE,
    DEFAULT_RECOVERY_WINDOW,
    cell_degradation,
    format_degradation_table,
    replicate_groups,
)
from .metrics.stats import DEFAULT_CONFIDENCE, groups_to_jsonable
from .obs.catalogue import METRIC_CATALOGUE
from .obs.trace_export import chrome_trace, write_chrome_trace, write_jsonl
from .scenarios.registry import build_config, scenario_defs, scenario_names

#: Degradation compares each cell with this scenario's twin cell.
BASELINE = "static-paper"

#: ``trial``'s non-registry scenario: the ``headline`` preset's ATC trial
#: (``static-paper`` with Adaptive Threshold Control).
HEADLINE = "headline"

#: The figure section of each preset that has one.
FIGURES = {
    "fig5": fig5_accuracy.render,
    "fig6": fig6_updates.render,
    "fig7": fig7_overshoot.render,
    "headline": headline.render,
}


# ---------------------------------------------------------------------------
# The report
# ---------------------------------------------------------------------------


def render_report(spec: CampaignSpec, groups) -> str:
    """The three report sections of a campaign's replicate groups."""
    blocks = [
        format_replicate_table(
            groups,
            metrics=list(METRIC_COLUMNS) + ["recovery_epochs"],
            title=(
                f"campaign {spec.campaign_id}: mean ± "
                f"{DEFAULT_CONFIDENCE:.0%} CI half-width per cell "
                f"({spec.num_epochs} epochs, seed {spec.seed}); "
                "recovery_epochs after the first disruption (window "
                f"{DEFAULT_RECOVERY_WINDOW}, tolerance "
                f"{DEFAULT_RECOVERY_TOLERANCE:g}; "
                "'-' = none)"
            ),
        )
    ]
    cells = {
        (str(g.tags["scenario"]), g.label.partition("/")[2]): g for g in groups
    }
    degradation = cell_degradation(cells, BASELINE)
    if degradation:
        blocks.append(
            format_degradation_table(
                degradation,
                title=(
                    f"degradation vs {BASELINE} (same protocol and sweep "
                    "point, replicate means)"
                ),
            )
        )
    figure = FIGURES.get(spec.name)
    if figure is not None:
        if sum(g.n for g in groups) == spec.total_trials:
            blocks.append(figure(groups))
        else:
            blocks.append(f"({spec.name}: the figure needs every trial)")
    return "\n\n".join(blocks)


def _emit(
    args, spec: CampaignSpec, store: ResultsStore, results, header: str
) -> None:
    """Write the ``--json`` / ``--markdown`` files, then print the report.

    ``header`` precedes the report.  The files come first, so a closed
    stdout (``| head``) cannot lose them.  The replicate table reads each
    store metric from the trial's summary, so a cache-served trial is
    decoded only for what its figure or its recovery time reads.
    """
    groups = replicate_groups(
        results,
        {
            name: lambda result, name=name: current_summary(result).metrics[name]
            for name in STORE_METRICS
        },
    )
    text = render_report(spec, groups)
    written = []
    if args.json:
        payload = store.export_jsonable(spec.campaign_id)
        payload["groups"] = groups_to_jsonable(groups)
        Path(args.json).write_text(
            json.dumps(payload, sort_keys=True, indent=2) + "\n"
        )
        written.append(f"JSON export written to {args.json}")
    if args.markdown:
        Path(args.markdown).write_text(
            f"# Campaign `{spec.campaign_id}`\n\n```\n{text}\n```\n"
        )
        written.append(f"markdown report written to {args.markdown}")
    print(f"{header}\n\n{text}")
    if written:
        print("\n" + "\n".join(written))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _csv(value: str) -> List[str]:
    """Split a comma list, trimming blanks and deduplicating in order."""
    return list(
        dict.fromkeys(part.strip() for part in value.split(",") if part.strip())
    )


def _sweep_value(text: str) -> object:
    lowered = text.strip().lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for parser in (int, float):
        try:
            return parser(text)
        except ValueError:
            continue
    return text.strip()


def _sweep(items: Optional[Sequence[str]]):
    """``--sweep field=v1,v2`` flags -> the spec's sweep tuple."""
    sweep = []
    for item in items or ():
        field, sep, values = item.partition("=")
        if not sep:
            raise ValueError(f"--sweep expects field=v1,v2,... got {item!r}")
        sweep.append(
            (
                field.strip(),
                tuple(_sweep_value(v) for v in values.split(",") if v.strip()),
            )
        )
    return tuple(sweep)


def _run_spec(
    args, store_path: Path, store: Optional[ResultsStore]
) -> CampaignSpec:
    """The campaign ``run`` names: ad-hoc, a preset, or a registered one.

    ``store`` is the open store at ``store_path``, or ``None`` when there
    is none yet.
    """
    epochs = PRESET_EPOCHS if args.epochs is None else args.epochs
    replicates = PRESET_REPLICATES if args.replicates is None else args.replicates
    seed = 1 if args.seed is None else args.seed
    if args.scenarios is not None:
        name = args.name or "campaign"
        if args.target is not None:
            raise ValueError(f"{args.target!r} and --scenarios both name a campaign")
        if name in PRESETS:
            raise ValueError(f"--name {name!r} is a preset; run the preset instead")
        return CampaignSpec(
            name=name,
            scenarios=tuple(_csv(args.scenarios)),
            protocols=tuple(_csv(args.protocols or "dirq")),
            replicates=replicates,
            num_epochs=epochs,
            seed=seed,
            sweep=_sweep(args.sweep),
        )
    if args.protocols or args.sweep or args.name:
        raise ValueError("--protocols, --sweep and --name need --scenarios")
    if args.target is None:
        raise ValueError(
            f"name a preset ({', '.join(PRESETS)}) or a registered campaign, "
            "or pass --scenarios"
        )
    if args.target in PRESETS:
        return preset(args.target, num_epochs=epochs, replicates=replicates, seed=seed)
    if (args.epochs, args.replicates, args.seed) != (None, None, None):
        raise ValueError(
            "a registered campaign's --epochs, --replicates and --seed are fixed"
        )
    if store is None:
        raise KeyError(
            f"{args.target!r} is no preset ({', '.join(PRESETS)}) and there is "
            f"no store at {store_path}"
        )
    row = store.resolve_campaign(args.target)
    return CampaignSpec.from_jsonable(row.spec_jsonable)


def _print_catalogue() -> None:
    print(
        format_table(
            headers=["preset", "protocols", "sweep"],
            rows=[
                (
                    name,
                    ",".join(protocols),
                    " ".join(
                        f"{f}={','.join(f'{v:g}' for v in values)}"
                        for f, values in sweep
                    )
                    or "-",
                )
                for name, (protocols, sweep) in PRESETS.items()
            ],
            title=(
                f"presets (on static-paper; default {PRESET_EPOCHS} epochs x "
                f"{PRESET_REPLICATES} replicates, seed 1)"
            ),
        )
    )
    print()
    print(
        format_table(
            headers=["scenario", "kind", "description"],
            rows=[(d.name, d.kind, d.description) for d in scenario_defs()],
            title="registered scenarios (--scenarios)",
        )
    )
    print()
    print(
        format_table(
            headers=["protocol", "transform"],
            rows=PROTOCOL_CATALOGUE,
            title="protocol variants (--protocols)",
        )
    )


def _registered(store: ResultsStore, ref: str) -> Optional[CampaignSpec]:
    """The campaign ``ref`` names in ``store``; ``None`` after an error."""
    try:
        row = store.resolve_campaign(ref)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return None
    return CampaignSpec.from_jsonable(row.spec_jsonable)


def cmd_run(args, store_path: Path) -> int:
    if args.list:
        _print_catalogue()
        return 0
    with contextlib.ExitStack() as stack:
        # One connection serves the whole command: it is the runner's cache
        # too.  A run refused before it has trials creates no store.
        store = None
        if store_path.is_file():
            store = stack.enter_context(ResultsStore(store_path))
        try:
            spec = _run_spec(args, store_path, store)
            trials = spec.trial_specs()  # refuses cells that alias one config
        except (KeyError, ValueError) as error:
            print(f"error: {error.args[0]}", file=sys.stderr)
            return 2
        if store is None:
            store = stack.enter_context(ResultsStore(store_path))
        runner = BatchRunner(max_workers=args.workers)
        # run_missing hands over every trial of the campaign once.
        by_key: Dict[str, TrialResult] = {}

        def keep(result: TrialResult) -> None:
            by_key[result.spec.key] = result

        try:
            stats = run_missing(spec, store, runner=runner, progress=keep)
        except KeyboardInterrupt:
            print(
                f"\ninterrupted: campaign {spec.campaign_id} has "
                f"{store.count(spec.campaign_id)}/{spec.total_trials} trials "
                f"stored in {store_path}; re-running the same command "
                "resumes it",
                file=sys.stderr,
            )
            return 130
        results = [by_key[trial.key] for trial in trials]
        wall = stats.runtime_seconds
        # Worker utilisation: the executed trials' own runtimes over the
        # time the workers had.
        busy = sum(r.runtime_seconds for r in results if not r.from_cache)
        capacity = wall * runner.max_workers
        header = (
            f"campaign {spec.campaign_id}: {stats.complete_before}/"
            f"{stats.total} trials already stored | scheduled "
            f"{stats.scheduled}: executed {stats.executed}, cache-served "
            f"{stats.cached}, deduplicated {stats.deduplicated} | workers "
            f"{runner.max_workers} | wall {wall:.2f}s, "
            f"{stats.scheduled / wall if wall else 0.0:.2f} trials/s, "
            f"util {busy / capacity if capacity else 0.0:.0%}"
        )
        _emit(args, spec, store, results, header)
    if args.require_cached and stats.executed:
        print(
            f"FAIL: --require-cached but {stats.executed} trials executed "
            "(expected 0)",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_report(args, store_path: Path) -> int:
    if not store_path.is_file():
        print(f"no store at {store_path}", file=sys.stderr)
        return 2
    with ResultsStore(store_path) as store:
        spec = _registered(store, args.campaign)
        if spec is None:
            return 2
        results, lost = stored_results(spec, store)
        if lost:
            print(
                f"error: {lost} recorded trials of campaign {spec.campaign_id} "
                "have no cached result (pruned); `python -m repro run "
                f"{spec.campaign_id}` executes them again",
                file=sys.stderr,
            )
            return 2
        header = (
            f"campaign {spec.campaign_id}: {len(results)}/{spec.total_trials} "
            "trials stored | 0 trials executed"
        )
        _emit(args, spec, store, results, header)
    return 0


def cmd_status(args, store_path: Path) -> int:
    if not store_path.is_file():
        print(f"no store at {store_path}")
        return 0
    with ResultsStore(store_path) as store:
        if args.campaign is None:
            rows = [
                (row.campaign_id, row.name, done, row.total_trials,
                 format_progress(done, row.total_trials))
                for row in store.campaigns()
                for done in (store.count(row.campaign_id),)
            ]
            if not rows:
                print(f"store {store_path}: no campaigns registered")
                return 0
            headers = ["campaign", "name", "done", "total", "progress"]
            title = f"store {store_path}: {len(rows)} campaigns"
        else:
            spec = _registered(store, args.campaign)
            if spec is None:
                return 2
            cells = campaign_status(spec, store)
            rows = [
                (scenario, protocol, d, t, format_progress(d, t))
                for scenario, protocol, d, t in cells
            ]
            headers = ["scenario", "protocol", "done", "total", "progress"]
            done = sum(cell[2] for cell in cells)
            title = (
                f"campaign {spec.campaign_id}: "
                f"{format_progress(done, spec.total_trials)} trials complete"
            )
    print(format_table(headers=headers, rows=rows, title=title))
    return 0


def cmd_cache(args, store_path: Path) -> int:
    if not store_path.is_file():
        print(f"no store at {store_path}")
        return 0
    with ResultsStore(store_path) as store:
        rows = store.cached_results()
        if args.prune:
            pruned = store.prune_results(everything=args.all)
            print(f"pruned {pruned} of {len(rows)} entries, {len(rows) - pruned} kept")
            return 0
    total_kb = sum(int(row["size_bytes"]) for row in rows) / 1024
    print(
        format_table(
            headers=[
                "key", "label", "scenario", "campaign", "version", "status",
                "size kB",
            ],
            rows=[
                (
                    row["key"],
                    row["label"] or "-",
                    row["scenario"] or "-",
                    row["campaign"] or "-",
                    row["cache_version"],
                    "ok" if row["cache_version"] == CACHE_VERSION else "stale",
                    f"{int(row['size_bytes']) / 1024:.1f}",
                )
                for row in rows
            ],
            title=(
                f"cache {store_path}: {len(rows)} entries, {total_kb:.1f} kB "
                f"(current version {CACHE_VERSION})"
            ),
        )
    )
    return 0


def _phase_rows(table: List[Tuple[str, int, float, float, float]]):
    return [
        (phase, calls, f"{total:.3f}", f"{mean_ms:.3f}", f"{100.0 * share:.1f}%")
        for phase, calls, total, mean_ms, share in table
    ]


def _metric_rows(snapshot: Dict[str, object]) -> List[Tuple[str, object, str]]:
    rows: List[Tuple[str, object, str]] = []
    for name, value in snapshot["counters"].items():
        rows.append((name, value, METRIC_CATALOGUE.get(name, "")))
    for name, value in snapshot["gauges"].items():
        rows.append((name, value, METRIC_CATALOGUE.get(name, "")))
    for name, hist in snapshot["histograms"].items():
        summary = (
            f"n={hist['count']} min={hist['min']} max={hist['max']} "
            f"mean={hist['total'] / hist['count']:.2f}"
            if hist["count"]
            else "n=0"
        )
        rows.append((name, summary, METRIC_CATALOGUE.get(name, "")))
    return sorted(rows)


def _trial_payload(
    result: TrialResult, telemetry: Dict[str, object]
) -> Dict[str, object]:
    """A trial's deterministic export: phase call counts, not their times."""
    payload: Dict[str, object] = {
        "label": result.label,
        "key": result.spec.key,
        "fingerprint": result.fingerprint(),
        "num_queries": result.num_queries,
    }
    if "metrics" in telemetry:
        payload["metrics"] = telemetry["metrics"]
    if "phases" in telemetry:
        payload["phase_counts"] = telemetry["phases"]["counts"]
    if "trace" in telemetry:
        payload["trace_counts"] = {
            k: telemetry["trace"][k] for k in sorted(telemetry["trace"])
        }
    return payload


def _write(name: str, text: str) -> None:
    path = Path(name)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def cmd_trial(args) -> int:
    if args.scenario == HEADLINE:
        config = build_config("static-paper", args.epochs, args.seed).with_atc()
    else:
        config = build_config(args.scenario, args.epochs, args.seed)
    config = config.replace(instrument=args.instrument)
    spec = TrialSpec(label=args.scenario, config=config)
    runner = ExperimentRunner(config)
    experiment = runner.run()
    result = TrialResult.from_experiment(spec, experiment)
    instrumentation = runner.world.sim.instrumentation
    phases = instrumentation.phases if instrumentation.phases.enabled else None
    tracer = instrumentation.tracer if instrumentation.tracer.enabled else None
    telemetry = experiment.telemetry or {}

    blocks = [
        format_key_values(
            f"trial {args.scenario} ({args.epochs} epochs, seed {args.seed}, "
            f"instrument={args.instrument})",
            [
                ("config key", spec.key),
                ("fingerprint", result.fingerprint()[:20]),
                ("queries", result.num_queries),
                ("alive at end", len(result.alive_at_end)),
            ],
        )
    ]
    markdown = [f"# Trial report: `{args.scenario}`", ""]
    phase_headers = ["phase", "calls", "total s", "mean ms", "share"]
    metric_headers = ["metric", "value", "description"]
    if phases is not None:
        rows = _phase_rows(phases.table())
        blocks.append(
            format_table(
                headers=phase_headers,
                rows=rows,
                title="epoch-tick phase profile (host time)",
            )
        )
        markdown += [
            "## Phase profile", "", format_markdown_table(phase_headers, rows), ""
        ]
    if "metrics" in telemetry:
        rows = _metric_rows(telemetry["metrics"])
        blocks.append(
            format_table(headers=metric_headers, rows=rows, title="metric snapshot")
        )
        markdown += ["## Metrics", "", format_markdown_table(metric_headers, rows), ""]
    if "trace" in telemetry:
        blocks.append(
            format_table(
                headers=["category", "records"],
                rows=sorted(telemetry["trace"].items()),
                title="trace record counts",
            )
        )

    # The files come first, so a closed stdout (``| head``) cannot lose them.
    written = []
    if args.trace_out:
        path = write_chrome_trace(
            args.trace_out,
            chrome_trace(phases=phases, tracer=tracer, label=args.scenario),
        )
        written.append(f"\nChrome trace written to {path} (load at ui.perfetto.dev)")
    if args.trace_jsonl:
        path = write_jsonl(args.trace_jsonl, instrumentation.tracer)
        written.append(f"trace JSONL written to {path}")
    if args.json:
        payload = _trial_payload(result, telemetry)
        _write(args.json, json.dumps(payload, sort_keys=True, indent=2) + "\n")
        written.append(f"deterministic JSON written to {args.json}")
    if args.markdown:
        _write(args.markdown, "\n".join(markdown))
        written.append(f"markdown report written to {args.markdown}")
    print("\n\n".join(blocks))
    for line in written:
        print(line)
    return 0


COMMANDS = {
    "run": cmd_run,
    "status": cmd_status,
    "report": cmd_report,
    "cache": cmd_cache,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--cache-dir",
        default=None,
        help=(
            f"directory of the store <cache-dir>/{DEFAULT_STORE_NAME}, which "
            "holds the trial cache and the campaigns (default: "
            "$REPRO_CACHE_DIR or .repro-cache)"
        ),
    )
    exports = argparse.ArgumentParser(add_help=False)
    exports.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write the deterministic JSON export (no runtimes or timestamps)",
    )
    exports.add_argument(
        "--markdown",
        default=None,
        metavar="PATH",
        help="write the text report as markdown",
    )
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Run, inspect and report campaigns: scenario × protocol × sweep "
            "× replicate spaces over one results store; or run one "
            "instrumented trial."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run",
        parents=[common, exports],
        help="run the trials a campaign lacks, then report it",
        description=(
            "Register a campaign (a preset, --scenarios, or a registered "
            "campaign id or name), run the trials the store lacks, and "
            "render the report; re-running resumes an interrupted run."
        ),
    )
    run.add_argument(
        "target",
        nargs="?",
        metavar="PRESET|CAMPAIGN",
        help=f"a preset ({', '.join(PRESETS)}) or a registered campaign",
    )
    run.add_argument(
        "--scenarios",
        default=None,
        help="comma-separated registered scenarios of an ad-hoc campaign",
    )
    run.add_argument(
        "--protocols",
        default=None,
        help=(
            "comma-separated protocol variants (default: dirq; see --list): "
            "dirq, atc, flooding, delta=X, atc-target=X"
        ),
    )
    run.add_argument(
        "--sweep",
        action="append",
        default=None,
        metavar="FIELD=V1,V2,...",
        help="add a config sweep axis (repeatable), e.g. target_coverage=0.2,0.4",
    )
    run.add_argument(
        "--name", default=None, help="ad-hoc campaign name (default: campaign)"
    )
    run.add_argument(
        "--replicates",
        type=int,
        default=None,
        help=f"independent seeds per cell (default: {PRESET_REPLICATES})",
    )
    run.add_argument(
        "--epochs",
        type=int,
        default=None,
        help=f"epochs per trial (default: {PRESET_EPOCHS}; paper: 20000)",
    )
    run.add_argument(
        "--seed", type=int, default=None, help="base master seed (default: 1)"
    )
    run.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default: CPU count)",
    )
    run.add_argument(
        "--require-cached",
        action="store_true",
        help="exit 1 unless the run executed zero trials (CI check)",
    )
    run.add_argument(
        "--list",
        action="store_true",
        help="print the presets, scenarios and protocol variants, then exit",
    )

    status = sub.add_parser(
        "status",
        parents=[common],
        help="per-cell progress of a campaign, or every campaign",
    )
    status.add_argument("campaign", nargs="?", help="campaign id or name")

    report = sub.add_parser(
        "report",
        parents=[common, exports],
        help="render a campaign's report from the store (executes nothing)",
    )
    report.add_argument("campaign", help="campaign id or name")

    cache = sub.add_parser(
        "cache",
        parents=[common],
        help="list (default) or prune the trial cache",
    )
    cache.add_argument(
        "--prune",
        action="store_true",
        help="delete the cached trials of other cache versions",
    )
    cache.add_argument(
        "--all",
        action="store_true",
        help="with --prune: delete every cached trial (campaigns stay)",
    )

    trial = sub.add_parser(
        "trial",
        parents=[exports],
        help="run one instrumented trial and render its phases and metrics",
        description=(
            "Run one fully instrumented trial outside any store and render "
            "its phase profile and metric snapshot; optionally export its "
            "Chrome trace and raw tracer records."
        ),
    )
    trial.add_argument(
        "scenario",
        metavar="SCENARIO",
        choices=[*scenario_names(), HEADLINE],
        help=(
            f"a registered scenario (see run --list) or '{HEADLINE}', the "
            "headline preset's ATC trial"
        ),
    )
    trial.add_argument(
        "--epochs", type=int, default=300, help="trial length (default: 300)"
    )
    trial.add_argument("--seed", type=int, default=1, help="master seed (default: 1)")
    trial.add_argument(
        "--instrument",
        default="full",
        choices=("metrics", "full"),
        help="instrumentation level (default: full)",
    )
    trial.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write the Chrome trace-event JSON (Perfetto-loadable)",
    )
    trial.add_argument(
        "--trace-jsonl",
        default=None,
        metavar="PATH",
        help="write the raw tracer records as JSON lines",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "trial":
        return cmd_trial(args)
    if args.command == "cache" and args.all and not args.prune:
        parser.error("--all only makes sense with --prune")
    store_path = Path(resolve_cache_dir(args.cache_dir)) / DEFAULT_STORE_NAME
    return COMMANDS[args.command](args, store_path)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
