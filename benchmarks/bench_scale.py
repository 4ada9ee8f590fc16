"""Network-axis scaling: throughput and memory at N in {50, 500, 5000}.

Tracks two things across revisions:

* **Epoch throughput + peak RSS per scale point** -- each point runs one
  full trial in a subprocess (so ``ru_maxrss`` is per-point, not
  whole-harness) and records epochs simulated per second alongside peak
  resident memory.
* **Maintenance-path throughput, fast vs brute** -- the per-relink
  pipeline (mobility delta -> neighbour recomputation -> spanning-tree
  rule) timed with the spatial hash against the all-pairs full rebuild
  kept as a test oracle (``tests/differential/reference.py``), on the
  same replayed move sequence.
  This is where the network-axis speedup lives: the static epoch loop
  (LMAC frames, sensing) is O(n) either way, so end-to-end trial time
  dilutes the O(n^2) -> O(k) neighbour win.  The recorded speedup is the
  acceptance number for the scaling work.

Bit-identity of the fast paths with their references is the tests' job:
``tests/scenarios/test_scale.py`` runs ``scale-500-mobile`` through the
all-pairs oracles, and ``tests/differential/test_registry_ab.py`` through
the per-node tick and frame beacons.

Runs as pytest-benchmark timings::

    PYTHONPATH=src python -m pytest benchmarks/bench_scale.py \
        -o python_files='bench_*.py' --benchmark-only

and as a CLI check for CI::

    PYTHONPATH=src python -m benchmarks.bench_scale --smoke --json BENCH_scale.json

Smoke mode drops the 5 000-node point and shortens every trial; the JSON
report has the same shape either way.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import pytest

from repro.experiments.runner import run_experiment
from repro.metrics.report import format_table
from repro.network.addresses import NodeId
from repro.network.spanning_tree import build_bfs_tree
from repro.network.topology import Topology, random_geometric_topology
from repro.scenarios.models import rebuild_spanning_tree
from repro.scenarios.registry import build_config
from tests.differential.reference import full_rebuild_delta

from .conftest import BENCH_SEED, emit

#: (num_nodes, registered scenario) pairs tracked by the scaling report.
#: ``static-paper`` is the 50-node reference; the ``scale-*`` entries are
#: density-preserving enlargements (see ``repro.scenarios.static``).
SCALE_POINTS: Tuple[Tuple[int, str], ...] = (
    (50, "static-paper"),
    (500, "scale-500"),
    (5000, "scale-5000"),
)

#: Epochs per scale-point trial.  200 keeps the 5 000-node point around
#: half a minute while still covering several query/relink periods.
SCALE_BENCH_EPOCHS = 200

#: Maintenance-path benchmark shape: a 500-node mobile network replaying
#: the same move sequence through both neighbour strategies.  The two
#: fractions bracket the mobility regimes: 5 % moved per re-link is the
#: sparse-churn case, where the delta touches few adjacencies, and 30 %
#: (the ``scale-500-mobile`` fraction) is heavy mobility.  Both arms carry
#: the tree over with the same rule, so the speedup is the delta's.
MAINTENANCE_NODES = 500
MAINTENANCE_STEPS = 30
MAINTENANCE_FRACTIONS = (0.05, 0.3)
MAINTENANCE_STEP_METRES = 2.0
#: Timing repeats per arm; the minimum is recorded (the repeats replay an
#: identical deterministic walk, so spread is scheduler noise, not work).
MAINTENANCE_REPEATS = 3


# ---------------------------------------------------------------------------
# Scale points (subprocess per point for honest peak-RSS numbers)
# ---------------------------------------------------------------------------


def run_point(scenario: str, num_epochs: int, seed: int) -> Dict[str, float]:
    """Run one scale-point trial in-process; return timing + RSS stats."""
    config = build_config(scenario, num_epochs=num_epochs, seed=seed)
    start = time.perf_counter()
    result = run_experiment(config)
    elapsed = time.perf_counter() - start
    # ru_maxrss is KiB on Linux (bytes on macOS; this harness targets Linux
    # CI, and the discrepancy only inflates the reported number there).
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "scenario": scenario,
        "num_nodes": result.num_nodes,
        "epochs": num_epochs,
        "num_queries": result.num_queries,
        "wall_s": elapsed,
        "epochs_per_s": num_epochs / elapsed,
        "peak_rss_mb": peak_kib / 1024.0,
    }


def measure_point(scenario: str, num_epochs: int, seed: int) -> Dict[str, float]:
    """Run one scale point in a child process so peak RSS is per-point."""
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "benchmarks.bench_scale",
            "--child",
            scenario,
            "--epochs",
            str(num_epochs),
            "--seed",
            str(seed),
        ],
        capture_output=True,
        text=True,
        env=os.environ,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"scale point {scenario} failed:\n{proc.stderr.strip()}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Maintenance path: mobility delta -> neighbours -> tree repair
# ---------------------------------------------------------------------------


def _move_sequence(
    topology: Topology,
    num_steps: int,
    seed: int,
    fraction: float,
    step_metres: float = MAINTENANCE_STEP_METRES,
) -> List[Dict[NodeId, Tuple[float, float]]]:
    """Pre-generated random-walk updates, identical for every timed arm.

    Positions evolve cumulatively (each step starts from the previous
    step's placements) and stay clamped to the deployment square; the
    root never moves, matching the runner's mobility model.
    """
    area = 100.0 * math.sqrt(len(topology.positions) / 50.0)
    rng = np.random.default_rng(seed)
    positions = dict(topology.positions)
    movable = [nid for nid in sorted(positions) if nid != 0]
    count = max(1, int(len(movable) * fraction))
    steps: List[Dict[NodeId, Tuple[float, float]]] = []
    for _ in range(num_steps):
        chosen = rng.choice(len(movable), size=count, replace=False)
        updates: Dict[NodeId, Tuple[float, float]] = {}
        for idx in sorted(int(i) for i in chosen):
            nid = movable[idx]
            x, y = positions[nid]
            dx, dy = rng.uniform(-step_metres, step_metres, size=2)
            moved = (
                min(max(x + dx, 0.0), area),
                min(max(y + dy, 0.0), area),
            )
            positions[nid] = moved
            updates[nid] = moved
        steps.append(updates)
    return steps


def maintenance_base(
    num_nodes: int = MAINTENANCE_NODES, seed: int = BENCH_SEED
) -> Topology:
    """The shared starting topology for the maintenance benchmark."""
    area = 100.0 * math.sqrt(num_nodes / 50.0)
    return random_geometric_topology(
        num_nodes,
        comm_range=30.0,
        area_size=area,
        rng=np.random.default_rng(seed),
    )


def maintenance_walk(
    topology: Topology,
    moves: Sequence[Dict[NodeId, Tuple[float, float]]],
    fast: bool,
):
    """Replay ``moves`` through one maintenance strategy.

    The fast arm is the production pipeline (spatial delta, pointer-swap
    topology adoption).  The brute arm replays the pre-hash pipeline: the
    all-pairs full-rebuild oracle and the O(V+E) graph copy plus node-set
    check the channel used to perform in ``update_topology``.
    Both arms then carry the tree over with the same rule
    (``rebuild_spanning_tree`` with ``previous``).

    Returns ``(elapsed_seconds, final_tree)`` so callers can both time the
    arms and assert that they produce the identical spanning tree.
    """
    alive = set(topology.positions)
    tree = build_bfs_tree(topology, root=0)
    channel_graph = topology.graph
    start = time.perf_counter()
    for updates in moves:
        if fast:
            topology, _ = topology.with_positions_delta(updates)
            channel_graph = topology.graph
            tree = rebuild_spanning_tree(topology, alive, 0, previous=tree)
        else:
            topology, _ = full_rebuild_delta(topology, updates)
            if set(topology.graph.nodes) != set(channel_graph.nodes):
                raise RuntimeError("node set changed")
            channel_graph = topology.graph.copy()
            _positions = dict(topology.positions)
            tree = rebuild_spanning_tree(topology, alive, 0, previous=tree)
    return time.perf_counter() - start, tree


def maintenance_arms(
    num_nodes: int,
    num_steps: int,
    seed: int,
    fraction: float,
    repeats: int = MAINTENANCE_REPEATS,
) -> Dict[str, object]:
    """Min-of-``repeats`` timing of both arms on one shared move sequence."""
    base = maintenance_base(num_nodes, seed)
    moves = _move_sequence(base, num_steps, seed, fraction=fraction)
    brute_s, fast_s = math.inf, math.inf
    brute_tree = fast_tree = None
    for _ in range(repeats):
        elapsed, brute_tree = maintenance_walk(base, moves, fast=False)
        brute_s = min(brute_s, elapsed)
        elapsed, fast_tree = maintenance_walk(base, moves, fast=True)
        fast_s = min(fast_s, elapsed)
    return {
        "num_nodes": num_nodes,
        "steps": num_steps,
        "moved_fraction": fraction,
        "brute_s": brute_s,
        "fast_s": fast_s,
        "brute_relinks_per_s": num_steps / brute_s,
        "fast_relinks_per_s": num_steps / fast_s,
        "speedup": brute_s / fast_s,
        "trees_identical": fast_tree.parent == brute_tree.parent,
    }


def maintenance_report(
    num_nodes: int = MAINTENANCE_NODES,
    num_steps: int = MAINTENANCE_STEPS,
    seed: int = BENCH_SEED,
) -> List[Dict[str, object]]:
    """Both maintenance regimes (sparse and heavy mobility), timed."""
    return [
        maintenance_arms(num_nodes, num_steps, seed, fraction)
        for fraction in MAINTENANCE_FRACTIONS
    ]


# ---------------------------------------------------------------------------
# pytest-benchmark timings
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("num_nodes,scenario", SCALE_POINTS)
def test_scale_epoch_throughput(benchmark, num_nodes, scenario):
    """One trial per scale point; the report shows epochs/s and peak RSS."""
    epochs = 120 if num_nodes >= 5000 else SCALE_BENCH_EPOCHS
    stats = benchmark.pedantic(
        lambda: run_point(scenario, epochs, BENCH_SEED), rounds=1, iterations=1
    )
    assert stats["num_nodes"] == num_nodes
    assert stats["num_queries"] > 0
    emit(
        f"scale point -- {scenario}",
        f"{num_nodes} nodes, {epochs} epochs: "
        f"{stats['epochs_per_s']:.1f} epochs/s, "
        f"peak RSS {stats['peak_rss_mb']:.0f} MB "
        "(in-process: RSS includes harness overhead; the CLI report "
        "isolates each point in a subprocess)",
    )


def test_maintenance_path_speedup(benchmark):
    """Spatial delta vs the pre-change brute pipeline.

    Both arms must produce the identical tree, and in the sparse-mobility
    regime the fast arm must be at least 5x faster at 500 nodes -- the
    acceptance number for the scaling work.
    """
    rows = benchmark.pedantic(lambda: maintenance_report(), rounds=1, iterations=1)
    for row in rows:
        assert row["trees_identical"], (
            f"arms diverged at moved fraction {row['moved_fraction']}"
        )
    emit(
        "maintenance path, 500 nodes (min of "
        f"{MAINTENANCE_REPEATS} repeats per arm)",
        "\n".join(
            f"{row['moved_fraction']:.0%} moved: "
            f"brute {row['brute_s']:.2f}s vs fast {row['fast_s']:.2f}s "
            f"over {row['steps']} relinks -- {row['speedup']:.1f}x"
            for row in rows
        ),
    )
    sparse = min(rows, key=lambda row: row["moved_fraction"])
    assert sparse["speedup"] >= 5.0, (
        f"sparse-mobility speedup {sparse['speedup']:.1f}x below the 5x "
        f"floor (brute {sparse['brute_s']:.3f}s, fast {sparse['fast_s']:.3f}s)"
    )


# ---------------------------------------------------------------------------
# CLI mode (used by CI; also the producer of BENCH_scale.json)
# ---------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Network-axis scaling benchmark: throughput, memory "
        "and maintenance speedup."
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="scaled-down CI mode: skip the 5000-node point, shorten trials",
    )
    parser.add_argument(
        "--epochs",
        type=int,
        default=None,
        help=(
            "epochs per scale-point trial (default: 120 in smoke mode, "
            f"{SCALE_BENCH_EPOCHS} otherwise)"
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=BENCH_SEED, help="trial seed"
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the full report as JSON to PATH",
    )
    parser.add_argument(
        "--child",
        metavar="SCENARIO",
        default=None,
        help=argparse.SUPPRESS,  # internal: run one point, print JSON stats
    )
    args = parser.parse_args(argv)

    if args.child is not None:
        stats = run_point(
            args.child, args.epochs or SCALE_BENCH_EPOCHS, args.seed
        )
        print(json.dumps(stats))
        return 0

    num_epochs = args.epochs or (120 if args.smoke else SCALE_BENCH_EPOCHS)
    points = [p for p in SCALE_POINTS if not (args.smoke and p[0] >= 5000)]

    rows = []
    report_points = []
    for num_nodes, scenario in points:
        stats = measure_point(scenario, num_epochs, args.seed)
        report_points.append(stats)
        rows.append(
            (
                scenario,
                num_nodes,
                stats["wall_s"],
                stats["epochs_per_s"],
                stats["peak_rss_mb"],
            )
        )
    print(
        format_table(
            headers=["scenario", "nodes", "wall s", "epochs/s", "peak RSS MB"],
            rows=rows,
            float_format="{:.1f}",
            title=f"scale points ({num_epochs} epochs per trial, "
            "one subprocess each)",
        )
    )

    # The maintenance benchmark is sub-second, so smoke mode runs it at
    # full length; fewer relinks would let first-call warm-up dominate.
    steps = MAINTENANCE_STEPS
    maintenance = maintenance_report(num_steps=steps, seed=args.seed)
    print(
        format_table(
            headers=["moved", "brute s", "fast s", "relinks/s", "speedup"],
            rows=[
                (
                    f"{row['moved_fraction']:.0%}",
                    row["brute_s"],
                    row["fast_s"],
                    row["fast_relinks_per_s"],
                    f"{row['speedup']:.1f}x",
                )
                for row in maintenance
            ],
            float_format="{:.2f}",
            title=f"maintenance path, {MAINTENANCE_NODES} nodes, "
            f"{steps} relinks, min of {MAINTENANCE_REPEATS} repeats",
        )
    )
    if not all(row["trees_identical"] for row in maintenance):
        print("FAIL: maintenance arms produced different trees", file=sys.stderr)
        return 1

    report = {
        "epochs_per_point": num_epochs,
        "seed": args.seed,
        "points": report_points,
        "maintenance": maintenance,
    }
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"report written to {args.json}")
    print("bench_scale: OK")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
