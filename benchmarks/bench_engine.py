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

PR 10 adds a *columnar* arm: paired back-to-back brute/columnar runs of
the same paper-network config in one process (``columnar_pairs``),
asserting the arms' cost breakdowns and ledgers are identical before any
timing is reported.  Pairing matters on the single-vCPU reference
container — only same-pair ratios are comparable under host steal; see
docs/vectorisation.md for the methodology and the recorded numbers.
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

#: Median per-pair brute/columnar CPU-time ratio of the 20 000-epoch
#: headline trial on the reference container (PR 10; paired measurement,
#: see docs/vectorisation.md — individual pairs ranged 1.4–2.1).
COLUMNAR_HEADLINE_20K_RATIO = 1.8


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


def columnar_pairs(num_epochs: int = 2_000, pairs: int = 1) -> dict:
    """Paired brute/columnar timing of the headline-style trial.

    Each pair runs both arms back to back in this process and times them
    with ``time.process_time`` (CPU seconds), so host steal hits both arms
    of a pair roughly equally and the per-pair ratio stays meaningful even
    when absolute wall clocks swing.  Bit-identity of the arms is asserted
    (fingerprint, cost breakdown, per-kind ledger) before any number is
    reported.
    """
    import copy
    import statistics

    from repro.experiments.batch import TrialResult, TrialSpec
    from repro.experiments.runner import run_experiment
    from repro.scenarios.static import paper_network

    base = paper_network(num_epochs=num_epochs, seed=1).with_atc()
    arms = {
        "brute": base.replace(tick_method="periodic"),
        "columnar": base.replace(tick_method="columnar"),
    }
    timings = {"brute": [], "columnar": []}
    prints = {}
    for _ in range(pairs):
        for label, cfg in arms.items():
            spec = TrialSpec(label=f"bench[{label}]", config=cfg)
            start = time.process_time()
            raw = run_experiment(copy.deepcopy(spec.config))
            timings[label].append(time.process_time() - start)
            result = TrialResult.from_experiment(spec, raw)
            obs = (
                result.fingerprint(include_key=False),
                result.breakdown,
                result.ledger.breakdown_by_kind(),
            )
            if label in prints and prints[label] != obs:
                raise AssertionError(f"{label} arm is not reproducible")
            prints[label] = obs
    if prints["brute"] != prints["columnar"]:
        raise AssertionError(
            "brute and columnar arms diverged: "
            f"{prints['brute'][0]} vs {prints['columnar'][0]}"
        )
    ratios = [b / c for b, c in zip(timings["brute"], timings["columnar"])]
    return {
        "num_epochs": num_epochs,
        "pairs": pairs,
        "identical": True,
        "brute_cpu_s": [round(t, 3) for t in timings["brute"]],
        "columnar_cpu_s": [round(t, 3) for t in timings["columnar"]],
        "median_pair_ratio": round(statistics.median(ratios), 3),
    }


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

        try:
            columnar = columnar_pairs(num_epochs=2_000, pairs=1)
        except AssertionError as exc:
            print(f"FAIL: columnar A/B: {exc}", file=sys.stderr)
            return 1
        print(
            "columnar A/B: arms bit-identical at "
            f"{columnar['num_epochs']} epochs, pair ratio "
            f"{columnar['median_pair_ratio']}x "
            f"(brute {columnar['brute_cpu_s'][0]}s CPU, "
            f"columnar {columnar['columnar_cpu_s'][0]}s CPU)"
        )
        report["columnar"] = columnar

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
