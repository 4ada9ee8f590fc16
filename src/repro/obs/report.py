"""Observability report CLI: per-trial phase/metric breakdowns.

``--scenario`` runs one fully-instrumented trial of a registered scenario
(or ``headline``, the ``headline`` preset's ATC trial) and renders its
phase profile and metric snapshot.  ``--trace-out`` writes the Chrome
trace-event JSON (loadable in Perfetto / ``chrome://tracing``),
``--trace-jsonl`` the raw tracer records.  A campaign's stored results are summarised by
``python -m repro status X`` and ``python -m repro report X``.

Output contract: the ``--json`` export contains only **deterministic**
data (metric counters/histograms, phase *call counts*, trace category
counts, the trial fingerprint) -- measured durations appear in the
console/markdown rendering only, so the JSON is byte-identical across
re-runs and safe to diff in CI.

Usage::

    python -m repro.obs.report --scenario harsh-mixed --epochs 300 \
        --trace-out artifacts/harsh.trace.json --json artifacts/harsh.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..experiments.batch import TrialResult, TrialSpec
from ..experiments.config import ExperimentConfig
from ..experiments.runner import ExperimentRunner
from ..metrics.report import (
    format_key_values,
    format_markdown_table,
    format_table,
)
from ..scenarios.registry import build_config, scenario_names
from .catalogue import METRIC_CATALOGUE
from .trace_export import chrome_trace, write_chrome_trace, write_jsonl

#: The non-registry scenario alias: the ``headline`` preset's ATC trial
#: (``static-paper`` with Adaptive Threshold Control).
HEADLINE = "headline"


def _build_trial_config(
    scenario: str, num_epochs: int, seed: int, instrument: Optional[str]
) -> ExperimentConfig:
    if scenario == HEADLINE:
        config = build_config("static-paper", num_epochs, seed).with_atc()
    else:
        config = build_config(scenario, num_epochs=num_epochs, seed=seed)
    return config.replace(instrument=instrument)


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


def _trial_json_payload(
    result: TrialResult, telemetry: Dict[str, object]
) -> Dict[str, object]:
    """The deterministic trial export: no wall-clock measurement enters.

    Phase *totals* (measured seconds) are deliberately dropped; the call
    counts are a pure function of the simulated work and stay.
    """
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


def run_trial_report(args: argparse.Namespace) -> int:
    config = _build_trial_config(
        args.scenario, args.epochs, args.seed, args.instrument
    )
    spec = TrialSpec(label=args.scenario, config=config)
    exp_runner = ExperimentRunner(config)
    exp_result = exp_runner.run()
    result = TrialResult.from_experiment(spec, exp_result)
    instrumentation = exp_runner.world.sim.instrumentation
    telemetry = exp_result.telemetry or {}

    print(
        format_key_values(
            f"trial {args.scenario} "
            f"({args.epochs} epochs, seed {args.seed}, "
            f"instrument={args.instrument})",
            [
                ("config key", spec.key),
                ("fingerprint", result.fingerprint()[:20]),
                ("queries", result.num_queries),
                ("alive at end", len(result.alive_at_end)),
            ],
        )
    )
    if instrumentation.phases.enabled:
        print()
        print(
            format_table(
                headers=["phase", "calls", "total s", "mean ms", "share"],
                rows=_phase_rows(instrumentation.phases.table()),
                title="epoch-tick phase profile (host time)",
            )
        )
    if "metrics" in telemetry:
        print()
        print(
            format_table(
                headers=["metric", "value", "description"],
                rows=_metric_rows(telemetry["metrics"]),
                title="metric snapshot",
            )
        )
    if "trace" in telemetry:
        print()
        print(
            format_table(
                headers=["category", "records"],
                rows=sorted(telemetry["trace"].items()),
                title="trace record counts",
            )
        )

    if args.trace_out:
        path = write_chrome_trace(
            args.trace_out,
            chrome_trace(
                phases=(
                    instrumentation.phases
                    if instrumentation.phases.enabled
                    else None
                ),
                tracer=(
                    instrumentation.tracer
                    if instrumentation.tracer.enabled
                    else None
                ),
                label=args.scenario,
            ),
        )
        print(f"\nChrome trace written to {path} (load at ui.perfetto.dev)")
    if args.trace_jsonl:
        path = write_jsonl(args.trace_jsonl, instrumentation.tracer)
        print(f"trace JSONL written to {path}")
    if args.json:
        payload = _trial_json_payload(result, telemetry)
        out = Path(args.json)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        print(f"deterministic JSON written to {out}")
    if args.markdown:
        lines = [f"# Trial report: `{args.scenario}`", ""]
        if instrumentation.phases.enabled:
            lines += [
                "## Phase profile",
                "",
                format_markdown_table(
                    headers=["phase", "calls", "total s", "mean ms", "share"],
                    rows=_phase_rows(instrumentation.phases.table()),
                ),
                "",
            ]
        if "metrics" in telemetry:
            lines += [
                "## Metrics",
                "",
                format_markdown_table(
                    headers=["metric", "value", "description"],
                    rows=_metric_rows(telemetry["metrics"]),
                ),
                "",
            ]
        out = Path(args.markdown)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text("\n".join(lines))
        print(f"markdown report written to {out}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=(
            "Observability report: run one instrumented trial and render "
            "its phase/metric breakdown (with optional Chrome trace "
            "export)."
        )
    )
    parser.add_argument(
        "--scenario",
        required=True,
        help=(
            "a registered scenario name "
            f"({', '.join(scenario_names())}) or '{HEADLINE}' for the "
            "paper's §7 configuration"
        ),
    )
    parser.add_argument(
        "--epochs", type=int, default=300, help="trial length (default: 300)"
    )
    parser.add_argument(
        "--seed", type=int, default=1, help="master seed (default: 1)"
    )
    parser.add_argument(
        "--instrument",
        default="full",
        choices=("metrics", "full"),
        help="instrumentation level for the trial (default: full)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write the Chrome trace-event JSON (Perfetto-loadable)",
    )
    parser.add_argument(
        "--trace-jsonl",
        default=None,
        metavar="PATH",
        help="write the raw tracer records as JSON lines",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write the deterministic JSON export",
    )
    parser.add_argument(
        "--markdown",
        default=None,
        metavar="PATH",
        help="write a markdown report",
    )
    return run_trial_report(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
