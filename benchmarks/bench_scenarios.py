"""Per-scenario epoch throughput: what do the dynamics cost?

Each registered scenario runs one trial of the same length and network as
the static baseline; the recorded metric is *epoch throughput*
(epochs simulated per second), so the overhead of churn bookkeeping,
mobility re-linking and battery accounting relative to the static paper
network is tracked across revisions.

Runs as pytest-benchmark timings::

    PYTHONPATH=src python -m pytest benchmarks/bench_scenarios.py \
        -o python_files='bench_*.py' --benchmark-only

and as a CLI smoke check for CI::

    PYTHONPATH=src python -m benchmarks.bench_scenarios --smoke

The smoke mode runs a scaled-down trial of every registered scenario,
asserts bit-exact repeatability, and prints the throughput table.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

import pytest

from repro.experiments.batch import BatchRunner, TrialSpec
from repro.experiments.runner import run_experiment
from repro.metrics.report import format_table
from repro.scenarios.registry import build_config, scenario_names

from .conftest import BENCH_SEED, emit

#: Scenarios timed individually by pytest-benchmark (one per dynamic
#: dimension plus the static reference); the CLI smoke covers the full
#: catalogue.
BENCH_SCENARIOS = (
    "static-paper",
    "churn-heavy",
    "area-blast",
    "mobile-40",
    "group-mobile",
    "diurnal-60",
    "energy-tiered",
    "harsh-mixed",
    "harsh-grid",
)

#: Epochs per timed trial -- smaller than the preset benchmarks because the
#: comparison of interest is *relative* (dynamics vs static), not absolute.
SCENARIO_BENCH_EPOCHS = 600


def run_scenario(name: str, num_epochs: int = SCENARIO_BENCH_EPOCHS):
    return run_experiment(build_config(name, num_epochs=num_epochs, seed=BENCH_SEED))


def throughput_rows(num_epochs: int, names: Sequence[str]):
    """(scenario, wall s, epochs/s, overhead vs static) rows, static first."""
    timings = {}
    for name in names:
        start = time.perf_counter()
        run_scenario(name, num_epochs)
        timings[name] = time.perf_counter() - start
    static = timings.get("static-paper")
    rows = []
    for name in names:
        wall = timings[name]
        overhead = (
            f"{wall / static:.2f}x" if static and name != "static-paper" else "-"
        )
        rows.append((name, wall, num_epochs / wall, overhead))
    return rows


@pytest.mark.parametrize("name", BENCH_SCENARIOS)
def test_scenario_epoch_throughput(benchmark, name):
    """Wall-clock of one trial per scenario; the report shows epochs/s."""
    result = benchmark.pedantic(
        lambda: run_scenario(name), rounds=1, iterations=1
    )
    assert result.num_queries > 0
    assert result.config.root_id in result.alive_at_end
    emit(
        f"scenario throughput -- {name}",
        f"{SCENARIO_BENCH_EPOCHS} epochs, {result.num_queries} queries, "
        f"{len(result.alive_at_end)}/{result.num_nodes} nodes alive at end, "
        f"{len(result.scenario_events)} dynamic events, "
        f"{result.num_relinks} re-links",
    )


def test_scenario_overhead_report(benchmark):
    """One table comparing every timed scenario against the static baseline."""
    rows = benchmark.pedantic(
        lambda: throughput_rows(SCENARIO_BENCH_EPOCHS, BENCH_SCENARIOS),
        rounds=1,
        iterations=1,
    )
    emit(
        "scenario epoch throughput vs static",
        format_table(
            headers=["scenario", "wall s", "epochs/s", "overhead"],
            rows=rows,
            float_format="{:.2f}",
        ),
    )
    # Dynamics must stay within an order of magnitude of the static path
    # (documented overhead is ~2x for mobility, ~1.1x elsewhere).  The
    # bound is relative, so a loaded runner that slows everything equally
    # cannot flake it; the small constant absorbs timer noise on the
    # sub-second static baseline.
    static = next(r for r in rows if r[0] == "static-paper")
    for row in rows:
        assert row[1] < 10 * static[1] + 2.0, (
            f"{row[0]} took {row[1]:.2f}s vs static {static[1]:.2f}s"
        )


# ---------------------------------------------------------------------------
# CLI smoke mode (used by CI)
# ---------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Per-scenario epoch-throughput benchmark / smoke check."
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="scaled-down CI mode: every scenario + determinism assert",
    )
    parser.add_argument(
        "--epochs",
        type=int,
        default=None,
        help=(
            "epochs per trial (default: 200 in smoke mode, "
            f"{SCENARIO_BENCH_EPOCHS} otherwise)"
        ),
    )
    args = parser.parse_args(argv)
    num_epochs = args.epochs or (200 if args.smoke else SCENARIO_BENCH_EPOCHS)

    names = scenario_names() if args.smoke else list(BENCH_SCENARIOS)
    rows = throughput_rows(num_epochs, names)
    print(
        format_table(
            headers=["scenario", "wall s", "epochs/s", "overhead"],
            rows=rows,
            float_format="{:.2f}",
            title=f"scenario epoch throughput ({num_epochs} epochs per trial)",
        )
    )

    if args.smoke:
        # Scenario trials must be bit-exact on repetition.
        runner = BatchRunner(max_workers=1, cache_dir="")
        specs = [
            TrialSpec(
                label=name,
                config=build_config(name, num_epochs=120, seed=BENCH_SEED),
            )
            for name in names
        ]
        first = [r.fingerprint() for r in runner.run(specs)]
        second = [r.fingerprint() for r in runner.run(specs)]
        if first != second:
            print("FAIL: scenario trials are not deterministic", file=sys.stderr)
            return 1
        print(
            f"smoke: {len(names)} scenarios, fingerprints reproducible"
        )
    print("bench_scenarios: OK")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
