"""Microbenchmarks of the simulation hot loop (engine + channel + runner).

These guard the fast-path work: the tuple-keyed event heap with cancelled-
event compaction, batched channel fan-out, and the runner's O(1) epoch
drain.  They run both as conventional pytest-benchmark timings and as a CLI
smoke check for CI::

    PYTHONPATH=src python -m benchmarks.bench_engine --smoke --json BENCH_engine.json

The smoke mode runs scaled-down workloads and asserts the engine's
compaction bound and the smoke sweep's bit-exact determinism; event
throughput is reported (an optional ``--min-events-per-second`` floor can
gate it, off by default so shared CI runners don't flake on wall clock).

Reference numbers (this repository, one core of the CI-class container):

===========================================  ==========  ==========
workload                                       pre-PR2      PR2
===========================================  ==========  ==========
20 000-epoch headline trial (50 nodes)         ~30.8 s     ~9.8 s
2 000-epoch paper-network trial                ~4.4 s      ~1.4 s
1 000-epoch small-network trial (16 nodes)     ~0.60 s     ~0.20 s
===========================================  ==========  ==========

The 3.1x wall-clock improvement comes with bit-identical result
fingerprints (see tests/experiments/test_fastpath_determinism.py).
Production-path trial speed is measured by ``perfbench/``; the columnar
tick's bit-identity with the per-node reference loop is checked by
``tests/differential/``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional, Sequence

from repro.simulation.engine import Simulator

#: Pre-PR2 wall-clock seconds of the 20 000-epoch headline trial, recorded
#: with the serial runner on the reference container.  Kept as data so later
#: sessions can compare against the same anchor.
BASELINE_HEADLINE_20K_SECONDS = 30.8

#: Post-PR2 wall-clock seconds of the same trial on the same container.
FAST_HEADLINE_20K_SECONDS = 9.8


# ---------------------------------------------------------------------------
# Engine workloads (shared by pytest-benchmark and the CLI smoke mode)
# ---------------------------------------------------------------------------


def chained_events(num_events: int = 10_000) -> int:
    """Schedule + execute a chain of ``num_events`` dependent events."""
    sim = Simulator()
    count = 0

    def tick() -> None:
        nonlocal count
        count += 1
        if count < num_events:
            sim.schedule_after(0.001, tick)

    sim.schedule_at(0.0, tick)
    sim.run()
    return count


def timer_churn(num_timers: int = 10_000) -> Simulator:
    """Arm-and-cancel timers, the pattern that used to leak heap entries.

    Every timer is re-armed (cancelling its predecessor) many times before
    any of them fires -- the LMAC beacon pattern.  Returns the simulator so
    callers can assert on the compaction bound.
    """
    sim = Simulator()
    handle = sim.schedule_at(1e9, lambda: None)
    for i in range(num_timers):
        handle.cancel()
        handle = sim.schedule_at(1e9 + i, lambda: None)
    return sim


def epoch_drain(num_epochs: int = 20_000) -> Simulator:
    """The runner's epoch pattern: mostly-empty run_until boundary drains."""
    sim = Simulator()
    # A sparse event population: one event every 50 epochs.
    for t in range(0, num_epochs, 50):
        sim.schedule_at(float(t) + 0.25, lambda: None)
    for epoch in range(num_epochs):
        sim.run_until(float(epoch))
        sim.run_until(epoch + 0.5)
    return sim


# ---------------------------------------------------------------------------
# pytest-benchmark entry points
# ---------------------------------------------------------------------------


def test_engine_chained_event_throughput(benchmark):
    assert benchmark(chained_events) == 10_000


def test_engine_timer_churn_stays_compacted(benchmark):
    sim = benchmark(timer_churn)
    # Lazy cancellation must not leak: the heap may hold at most the live
    # events plus the documented compaction slack.
    assert sim.pending == 1
    assert sim.queue_size <= 2 * sim.pending + Simulator.COMPACT_MIN_CANCELLED


def test_engine_epoch_drain_fast_path(benchmark):
    sim = benchmark(epoch_drain)
    assert sim.executed == 400


def test_trial_wall_clock_smoke(benchmark):
    """A miniature end-to-end trial through the whole optimised stack."""
    from repro.experiments.runner import run_experiment
    from repro.scenarios.static import small_network

    def run():
        return run_experiment(small_network(num_nodes=12, num_epochs=150))

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.num_queries > 0


# ---------------------------------------------------------------------------
# CLI smoke mode (used by CI)
# ---------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Engine hot-loop microbenchmark / smoke check."
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the scaled-down CI smoke mode (asserts + throughput floor)",
    )
    parser.add_argument(
        "--events",
        type=int,
        default=200_000,
        help="chained events for the throughput measurement (default 200k)",
    )
    parser.add_argument(
        "--min-events-per-second",
        type=float,
        default=0.0,
        help=(
            "optional throughput floor; 0 (default) only reports the rate. "
            "Wall-clock floors flake on loaded shared runners, so CI gates "
            "on the deterministic checks and leaves this off."
        ),
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default="",
        help="write the measured numbers as a JSON report (the committed "
        "BENCH_engine.json artifact is produced this way)",
    )
    args = parser.parse_args(argv)

    num_events = 50_000 if args.smoke else args.events

    start = time.perf_counter()
    executed = chained_events(num_events)
    elapsed = time.perf_counter() - start
    rate = executed / elapsed
    print(f"engine: {executed} chained events in {elapsed:.3f}s ({rate:,.0f}/s)")

    sim = timer_churn(10_000)
    bound = 2 * sim.pending + Simulator.COMPACT_MIN_CANCELLED
    print(
        f"engine: timer churn leaves queue_size={sim.queue_size} "
        f"(pending={sim.pending}, bound={bound})"
    )
    if sim.queue_size > bound:
        print("FAIL: cancelled-event compaction bound violated", file=sys.stderr)
        return 1

    start = time.perf_counter()
    epoch_drain(20_000)
    drain = time.perf_counter() - start
    print(f"engine: 20k-epoch boundary drain in {drain:.3f}s")

    report = {
        "smoke": bool(args.smoke),
        "chained_events": {
            "num_events": executed,
            "wall_s": round(elapsed, 4),
            "events_per_s": round(rate, 1),
        },
        "timer_churn": {
            "pending": sim.pending,
            "queue_size": sim.queue_size,
            "compaction_bound": bound,
        },
        "epoch_drain": {"num_epochs": 20_000, "wall_s": round(drain, 4)},
    }

    if args.smoke:
        from repro.experiments.batch import BatchRunner
        from repro.scenarios.static import smoke_sweep

        specs = smoke_sweep(num_nodes=10, num_epochs=80)
        runner = BatchRunner(max_workers=1, cache_dir="")
        first = [r.fingerprint() for r in runner.run(specs)]
        second = [r.fingerprint() for r in runner.run(specs)]
        if first != second:
            print("FAIL: smoke sweep is not deterministic", file=sys.stderr)
            return 1
        print(f"smoke sweep: {len(specs)} trials, fingerprints reproducible")
        report["smoke_sweep"] = {
            "trials": len(specs),
            "deterministic": True,
            "fingerprints": first,
        }

        if args.min_events_per_second > 0 and rate < args.min_events_per_second:
            print(
                f"FAIL: event throughput {rate:,.0f}/s below floor "
                f"{args.min_events_per_second:,.0f}/s",
                file=sys.stderr,
            )
            return 1
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"report written to {args.json}")
    print("bench_engine: OK")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
