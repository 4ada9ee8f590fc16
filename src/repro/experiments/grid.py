"""Scenario × protocol evaluation grid: the whole space in one matrix.

The scenario CLI (:mod:`repro.scenarios.run`) answers "how does *one*
scenario degrade DirQ"; this module answers the question the ROADMAP
north-star implies: *how does each protocol variant degrade across the
whole scenario space?*  It crosses any subset of the registry's named
scenarios with the protocol variants (fixed-δ DirQ, Adaptive Threshold
Control, flooding -- the existing ``with_atc()`` / ``with_flooding()``
config transforms), expands the cross product into replicated
:class:`~repro.experiments.batch.TrialSpec` cells, runs everything through
one :meth:`~repro.experiments.batch.BatchRunner.run_replicated` call, and
renders matrix reports: per-cell ``mean ± CI`` accuracy / energy / cost
tables, per-cell recovery times, and per-scenario degradation rows against
the same-protocol static baseline
(:func:`repro.metrics.resilience.grid_degradation`).

Cache composition
-----------------
The ``dirq`` cell of a scenario is *exactly* the config that
:func:`repro.scenarios.registry.scenario_spec` (and hence
``python -m repro.scenarios.run``) builds -- same factory, no transform --
so a cell already simulated by the scenario CLI is served from cache here,
and vice versa.  The other protocol variants change the config (and
therefore the cache key) only through the documented transforms.

Determinism
-----------
The JSON and markdown exports contain replicate groups (provenance-free)
and pure functions of the deterministic trial payloads, so a grid export
is bit-identical across worker counts, cache states, and repeated runs;
``--require-cached`` turns the 0-trial warm-cache re-run into an exit code
for CI.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..metrics.report import (
    format_markdown_matrix,
    format_matrix,
    format_table,
)
from ..metrics.resilience import (
    DEFAULT_RECOVERY_TOLERANCE,
    format_grid_degradation_table,
    grid_degradation,
    grid_degradation_to_jsonable,
    recovery_summary,
)
from ..metrics.stats import DEFAULT_CONFIDENCE, ReplicateGroup
from ..scenarios.registry import DEFAULT_SCENARIO_EPOCHS, get_scenario
from ..scenarios.run import DEFAULT_BASELINE, format_catalogue
from .batch import BatchRunner, BatchStats, TrialSpec, resolve_cache_dir
from .config import ExperimentConfig
from .store import DEFAULT_STORE_NAME, STORE_METRICS, ResultsStore

#: Protocol variants a grid can cross scenarios with: name -> (config
#: transform, ``--list`` description).  ``dirq`` is the identity -- the
#: registry configs already run fixed-δ DirQ -- which is what makes grid
#: cells and ``repro.scenarios.run`` trials share cache entries.  The
#: transform map, the default column order, and the catalogue rows are all
#: derived from this one table.
_PROTOCOL_DEFS: Dict[
    str, Tuple[Callable[[ExperimentConfig], ExperimentConfig], str]
] = {
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

PROTOCOLS: Dict[str, Callable[[ExperimentConfig], ExperimentConfig]] = {
    name: transform for name, (transform, _) in _PROTOCOL_DEFS.items()
}

DEFAULT_PROTOCOLS = tuple(_PROTOCOL_DEFS)

#: Default JSON export path.  Lives under the gitignored ``artifacts/``
#: directory so ad-hoc grid runs never leave stray files at the repo root.
DEFAULT_JSON_PATH = "artifacts/grid.json"

#: Grid metrics: every default replicate metric plus the total radio energy
#: of the run (protocol-agnostic, unlike ``total_dirq_cost``).  This is the
#: store's metric set by construction -- the campaign store persists
#: exactly these scalars as columns, which is what lets ``--from-campaign``
#: render the same matrices without unpickling a cached trial.
GRID_METRICS = dict(STORE_METRICS)

#: Metrics rendered as scenario×protocol matrices (one table each).
MATRIX_METRICS = ("mean_accuracy", "total_energy", "cost_ratio")

#: One (scenario, protocol) cell of a finished grid.
GridCells = Dict[Tuple[str, str], ReplicateGroup]


def grid_specs(
    scenarios: Sequence[str],
    protocols: Sequence[str],
    num_epochs: int = DEFAULT_SCENARIO_EPOCHS,
    seed: int = 1,
) -> List[TrialSpec]:
    """One :class:`TrialSpec` per (scenario, protocol) cell, row-major.

    Raises ``KeyError`` for unknown scenario or protocol names and
    ``ValueError`` for duplicates (duplicate cells would fold into one
    replicate group with double-counted values and a falsely narrow CI).
    The ``dirq`` cell's config is byte-identical to the registry factory's
    output, so its cache key matches :func:`scenario_spec`'s.
    """
    for kind, names in (("scenario", scenarios), ("protocol", protocols)):
        dupes = sorted({n for n in names if list(names).count(n) > 1})
        if dupes:
            raise ValueError(f"duplicate {kind} names: {', '.join(dupes)}")
    specs: List[TrialSpec] = []
    for name in scenarios:
        definition = get_scenario(name)
        for proto in protocols:
            if proto not in PROTOCOLS:
                raise KeyError(
                    f"unknown protocol {proto!r}; "
                    f"known: {', '.join(sorted(PROTOCOLS))}"
                )
            config = PROTOCOLS[proto](definition.factory(num_epochs, seed))
            specs.append(
                TrialSpec(
                    label=f"{name}/{proto}",
                    config=config,
                    group="grid",
                    tags={
                        "scenario": name,
                        "scenario_kind": definition.kind,
                        "protocol": proto,
                    },
                )
            )
    return specs


def run_grid(
    scenarios: Sequence[str],
    protocols: Sequence[str],
    replicates: int = 3,
    num_epochs: int = DEFAULT_SCENARIO_EPOCHS,
    seed: int = 1,
    runner: Optional[BatchRunner] = None,
    confidence: float = DEFAULT_CONFIDENCE,
) -> Tuple[GridCells, BatchStats]:
    """Run the full grid replicated; returns cells keyed ``(scenario, protocol)``.

    Cell order follows the (scenarios × protocols) cross product row-major,
    so reports and exports are independent of worker count and cache state.
    """
    specs = grid_specs(scenarios, protocols, num_epochs=num_epochs, seed=seed)
    runner = runner if runner is not None else BatchRunner()
    groups = runner.run_replicated(
        specs, n=replicates, metrics=GRID_METRICS, confidence=confidence
    )
    cells: GridCells = {}
    for group in groups:
        key = (str(group.tags["scenario"]), str(group.tags["protocol"]))
        cells[key] = group
    return cells, runner.last_stats


def campaign_cells(
    store: ResultsStore, campaign_ref: str
) -> Tuple[GridCells, List[str], List[str]]:
    """Grid cells rebuilt from a campaign's results store.

    Resolves ``campaign_ref`` (id or unique name), folds the stored scalar
    metrics into :class:`ReplicateGroup` cells keyed ``(scenario,
    protocol)``, and returns the scenario/protocol axes in the campaign
    spec's declared order.  Raises ``ValueError`` for campaigns with more
    than one sweep point -- a swept campaign is several grids, and which
    one to render is not this function's call (filter with
    ``repro.experiments.campaign --query`` instead).

    Recovery matrices need the full per-epoch update series, which the
    store deliberately does not persist, so store-backed grids render
    recovery cells as ``-``.
    """
    row = store.resolve_campaign(campaign_ref)
    spec = row.spec_jsonable
    groups = store.replicate_groups(row.campaign_id)
    sweeps = {json.dumps(g.tags["sweep"], sort_keys=True) for g in groups}
    if len(sweeps) > 1:
        raise ValueError(
            f"campaign {row.campaign_id} has {len(sweeps)} sweep points; "
            "a grid renders exactly one -- query the store per point "
            "instead"
        )
    cells: GridCells = {}
    for group in groups:
        cells[(str(group.tags["scenario"]), str(group.tags["protocol"]))] = group
    scenarios = [s for s in spec["scenarios"] if any(k[0] == s for k in cells)]
    protocols = [p for p in spec["protocols"] if any(k[1] == p for k in cells)]
    return cells, scenarios, protocols


def grid_recovery(
    cells: GridCells,
    window_epochs: int = 100,
    tolerance: float = DEFAULT_RECOVERY_TOLERANCE,
):
    """Per-cell recovery summaries (None where no disruption/recovery)."""
    return {
        key: recovery_summary(
            group.results, window_epochs=window_epochs, tolerance=tolerance
        )
        for key, group in cells.items()
    }


def _metric_cell(cells: GridCells, metric: str, float_format: str = "{:.3f}"):
    def cell(scenario: str, protocol: str) -> str:
        group = cells.get((scenario, protocol))
        if group is None or metric not in group.metrics:
            return "-"
        return group.metrics[metric].format(float_format)

    return cell


def _recovery_cell(recovery):
    def cell(scenario: str, protocol: str) -> str:
        summary = recovery.get((scenario, protocol))
        return "-" if summary is None else summary.format("{:.0f}")

    return cell


def format_grid_report(
    cells: GridCells,
    scenarios: Sequence[str],
    protocols: Sequence[str],
    recovery,
    degradation,
    baseline: str,
    markdown: bool = False,
) -> str:
    """The full matrix report (text tables, or markdown with ``markdown=True``)."""
    blocks: List[str] = []
    for metric in MATRIX_METRICS:
        cell = _metric_cell(cells, metric)
        if markdown:
            blocks.append(
                f"## {metric} (mean ± CI)\n\n"
                + format_markdown_matrix("scenario", scenarios, protocols, cell)
            )
        else:
            blocks.append(
                format_matrix(
                    "scenario",
                    scenarios,
                    protocols,
                    cell,
                    title=f"{metric}: mean ± CI half-width per cell",
                )
            )
    cell = _recovery_cell(recovery)
    if markdown:
        blocks.append(
            "## recovery after first disruption (epochs)\n\n"
            + format_markdown_matrix("scenario", scenarios, protocols, cell)
        )
    else:
        blocks.append(
            format_matrix(
                "scenario",
                scenarios,
                protocols,
                cell,
                title="recovery after first disruption (epochs; '-' = n/a)",
            )
        )
    if degradation:
        table = format_grid_degradation_table(
            degradation,
            title=None if markdown else (
                f"degradation vs {baseline} (same-protocol column, "
                "replicate means)"
            ),
        )
        if markdown:
            blocks.append(f"## degradation vs `{baseline}`\n\n```\n{table}\n```")
        else:
            blocks.append(table)
    return "\n\n".join(blocks)


def grid_to_jsonable(
    cells: GridCells,
    scenarios: Sequence[str],
    protocols: Sequence[str],
    recovery,
    degradation,
    baseline: str,
) -> Dict[str, object]:
    """Deterministic JSON payload of a finished grid (no provenance fields)."""
    return {
        "scenarios": list(scenarios),
        "protocols": list(protocols),
        "cells": [
            {
                "scenario": scenario,
                "protocol": protocol,
                **cells[(scenario, protocol)].to_dict(),
                "recovery": (
                    None
                    if recovery.get((scenario, protocol)) is None
                    else recovery[(scenario, protocol)].to_dict()
                ),
            }
            for scenario in scenarios
            for protocol in protocols
            if (scenario, protocol) in cells
        ],
        "degradation": grid_degradation_to_jsonable(degradation, baseline),
    }


def _print_catalogue() -> None:
    print(format_catalogue(title="registered scenarios (rows)"))
    print()
    print(
        format_table(
            headers=["protocol", "transform"],
            rows=[
                (name, description)
                for name, (_, description) in _PROTOCOL_DEFS.items()
            ],
            title="protocol variants (columns)",
        )
    )


def _csv(value: str) -> List[str]:
    """Split a comma list, trimming blanks and deduplicating in order."""
    return list(
        dict.fromkeys(part.strip() for part in value.split(",") if part.strip())
    )


def _main_from_campaign(args) -> int:
    """The ``--from-campaign`` path: matrices straight from the store."""
    store_path = Path(resolve_cache_dir(args.cache_dir)) / DEFAULT_STORE_NAME
    if not store_path.is_file():
        print(f"error: results store {store_path} does not exist", file=sys.stderr)
        return 2
    with ResultsStore(store_path) as store:
        try:
            cells, scenarios, protocols = campaign_cells(
                store, args.from_campaign
            )
        except (KeyError, ValueError) as error:
            print(f"error: {error.args[0]}", file=sys.stderr)
            return 2
        campaign_id = store.resolve_campaign(args.from_campaign).campaign_id
    if not cells:
        print(
            f"error: campaign {campaign_id} has no stored trials yet",
            file=sys.stderr,
        )
        return 2

    baseline = args.baseline
    with_baseline = baseline != "none" and any(
        scenario == baseline for scenario, _ in cells
    )
    recovery: Dict[Tuple[str, str], object] = {}  # series not stored -> '-'
    degradation = (
        grid_degradation(cells, baseline) if with_baseline else []
    )

    n_values = sorted({group.n for group in cells.values()})
    print(
        f"scenario grid from campaign {campaign_id} (store {store_path}): "
        f"{len(scenarios)} scenarios x {len(protocols)} protocols | "
        f"{len(cells)} cells, replicates per cell: "
        f"{'/'.join(str(n) for n in n_values)} | 0 trials executed"
    )
    print()
    print(
        format_grid_report(
            cells,
            scenarios,
            protocols,
            recovery,
            degradation,
            baseline=baseline,
        )
    )

    payload = {
        "campaign_id": campaign_id,
        "confidence": DEFAULT_CONFIDENCE,
        **grid_to_jsonable(
            cells,
            scenarios,
            protocols,
            recovery,
            degradation,
            baseline=baseline if with_baseline else "",
        ),
    }
    json_path = Path(args.json_path or DEFAULT_JSON_PATH)
    json_path.parent.mkdir(parents=True, exist_ok=True)
    json_path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    print()
    print(f"JSON export written to {json_path}")

    if args.markdown_path:
        md = (
            "# Scenario × protocol grid\n\n"
            f"Rendered from campaign `{campaign_id}` "
            f"(results store, no trials executed).\n\n"
            + format_grid_report(
                cells,
                scenarios,
                protocols,
                recovery,
                degradation,
                baseline=baseline,
                markdown=True,
            )
            + "\n"
        )
        Path(args.markdown_path).write_text(md)
        print(f"markdown report written to {args.markdown_path}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=(
            "Run a scenario × protocol evaluation grid with N replicates "
            "per cell and render matrix reports with degradation vs the "
            "static baseline."
        )
    )
    parser.add_argument(
        "--scenarios",
        default=None,
        help="comma-separated registered scenario names (see --list)",
    )
    parser.add_argument(
        "--protocols",
        default=",".join(DEFAULT_PROTOCOLS),
        help=(
            "comma-separated protocol variants "
            f"(default: {','.join(DEFAULT_PROTOCOLS)})"
        ),
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="print the scenario catalogue and protocol variants, then exit",
    )
    parser.add_argument(
        "--replicates",
        type=int,
        default=3,
        help="independent seeds per cell (default: 3)",
    )
    parser.add_argument(
        "--epochs",
        type=int,
        default=DEFAULT_SCENARIO_EPOCHS,
        help=(
            f"epochs per trial (default: {DEFAULT_SCENARIO_EPOCHS}; "
            "paper-length: 20000)"
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=1, help="base master seed (default: 1)"
    )
    parser.add_argument(
        "--baseline",
        default=DEFAULT_BASELINE,
        help=(
            "scenario the degradation rows compare against, per protocol "
            f"column (default: {DEFAULT_BASELINE}; appended to the grid "
            "when absent; 'none' disables the comparison)"
        ),
    )
    parser.add_argument(
        "--recovery-window",
        type=int,
        default=100,
        help="window (epochs) for the recovery-time metric (default: 100)",
    )
    parser.add_argument(
        "--recovery-tolerance",
        type=float,
        default=DEFAULT_RECOVERY_TOLERANCE,
        help=(
            "accuracy slack for declaring recovery "
            f"(default: {DEFAULT_RECOVERY_TOLERANCE})"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default: CPU count)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=(
            "directory of the results store "
            f"<cache-dir>/{DEFAULT_STORE_NAME} (default: $REPRO_CACHE_DIR "
            "or .repro-cache); cells shared with repro.scenarios.run are "
            "served from its trial cache, and --from-campaign reads its "
            "campaigns"
        ),
    )
    parser.add_argument(
        "--json",
        dest="json_path",
        default=None,
        help=f"JSON export path (default: {DEFAULT_JSON_PATH})",
    )
    parser.add_argument(
        "--markdown",
        dest="markdown_path",
        default=None,
        help="also write the matrix report as a markdown file",
    )
    parser.add_argument(
        "--require-cached",
        action="store_true",
        help="exit non-zero unless the grid executed zero trials (CI check)",
    )
    parser.add_argument(
        "--from-campaign",
        default=None,
        metavar="ID_OR_NAME",
        help=(
            "render the matrices from a campaign's stored metrics instead "
            "of running trials (no cached trial is read; recovery renders "
            "as '-')"
        ),
    )
    args = parser.parse_args(argv)

    if args.list:
        _print_catalogue()
        return 0
    if args.from_campaign is not None:
        return _main_from_campaign(args)
    if args.scenarios is None:
        parser.error("--scenarios is required (or use --list)")
    if args.replicates < 1:
        parser.error("--replicates must be >= 1")
    if args.recovery_window < 1:
        parser.error("--recovery-window must be >= 1")
    if args.recovery_tolerance < 0:
        parser.error("--recovery-tolerance must be non-negative")

    scenarios = _csv(args.scenarios)
    protocols = _csv(args.protocols)
    if not scenarios:
        parser.error("--scenarios must name at least one scenario")
    if not protocols:
        parser.error("--protocols must name at least one protocol")

    baseline = args.baseline
    with_baseline = baseline != "none"
    if with_baseline and baseline not in scenarios:
        scenarios = scenarios + [baseline]

    cache_dir = resolve_cache_dir(args.cache_dir)
    runner = BatchRunner(max_workers=args.workers, cache_dir=cache_dir)
    try:
        cells, stats = run_grid(
            scenarios,
            protocols,
            replicates=args.replicates,
            num_epochs=args.epochs,
            seed=args.seed,
            runner=runner,
        )
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2

    recovery = grid_recovery(
        cells,
        window_epochs=args.recovery_window,
        tolerance=args.recovery_tolerance,
    )
    degradation = (
        grid_degradation(cells, baseline) if with_baseline else []
    )

    print(
        f"scenario grid: {len(scenarios)} scenarios x {len(protocols)} "
        f"protocols ({args.epochs} epochs) | {len(cells)} cells x "
        f"{args.replicates} replicates = {stats.total} trials | "
        f"executed {stats.executed}, cached {stats.cached}, "
        f"deduplicated {stats.deduplicated} | workers {stats.workers} | "
        f"wall {stats.runtime_seconds:.2f}s"
    )
    print()
    print(
        format_grid_report(
            cells,
            scenarios,
            protocols,
            recovery,
            degradation,
            baseline=baseline,
        )
    )

    payload = {
        "epochs": args.epochs,
        "seed": args.seed,
        "replicates": args.replicates,
        "confidence": DEFAULT_CONFIDENCE,
        **grid_to_jsonable(
            cells,
            scenarios,
            protocols,
            recovery,
            degradation,
            baseline=baseline if with_baseline else "",
        ),
    }
    json_path = Path(args.json_path or DEFAULT_JSON_PATH)
    json_path.parent.mkdir(parents=True, exist_ok=True)
    json_path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    print()
    print(f"JSON export written to {json_path}")

    if args.markdown_path:
        md = (
            "# Scenario × protocol grid\n\n"
            f"{len(scenarios)} scenarios × {len(protocols)} protocols, "
            f"{args.epochs} epochs, {args.replicates} replicates per cell, "
            f"seed {args.seed}.\n\n"
            + format_grid_report(
                cells,
                scenarios,
                protocols,
                recovery,
                degradation,
                baseline=baseline,
                markdown=True,
            )
            + "\n"
        )
        Path(args.markdown_path).write_text(md)
        print(f"markdown report written to {args.markdown_path}")

    if args.require_cached and stats.executed != 0:
        print(
            f"FAIL: --require-cached but {stats.executed} trials executed "
            "(expected 0)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
