"""Run the repository benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

With ``--trace 0`` a fresh child process runs the untraced pass for
``--seconds`` and the last stdout line is a JSON object with every
end-to-end metric.  With ``--trace 1`` an untraced child runs one cycle (for
the counters, the fingerprints and the CPU baseline) and a second child
runs the traced pass for ``--seconds``; the JSON then holds every per-layer
metric, and the spans are written as Chrome trace JSON under
``perfbench/out/``.  ``--workload all`` runs every workload untraced and
traced and prints all of it.

Children run with BLAS pinned to one thread and a fixed hash seed.  The
program is imported from ``src/`` of the checkout this file sits in; the
benchmark exits with status 2 when that tree is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"

#: Environment of the measuring children.  OpenBLAS's second thread about
#: doubles set-up CPU at 500 nodes, so every BLAS is pinned to one thread.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

#: Wall-clock budget of one invocation; children are killed past it.
DEADLINE_S = 170.0


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="Run the repository benchmark.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("untraced", "traced"), help=argparse.SUPPRESS)
    parser.add_argument("--setups", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--expect", default="{}", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Child side: one pass, reported as one JSON line
# ---------------------------------------------------------------------------


def _child(args: argparse.Namespace) -> int:
    import repro
    from perfbench.passes import run_pass
    from perfbench.workloads import WORKLOADS

    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: repro imported from {repro.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    traced = args.child == "traced"
    result = run_pass(
        workload,
        args.seed,
        args.seconds,
        OUT_DIR / "work",
        traced=traced,
        setups=args.setups,
        expected=json.loads(args.expect) or None,
        trace_path=OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json" if traced else None,
    )
    print(json.dumps(result.to_jsonable()))
    return 0


# ---------------------------------------------------------------------------
# Parent side: orchestration and output
# ---------------------------------------------------------------------------


class ChildFailed(RuntimeError):
    pass


def _spawn(args, workload: str, kind: str, seconds: float, setups: int, expect, deadline: Optional[float]):
    from perfbench.passes import PassResult

    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--child", kind,
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", repr(seconds),
        "--setups", str(setups),
        "--expect", json.dumps(expect or {}),
    ]
    remaining = None if deadline is None else deadline - time.monotonic()
    if remaining is not None and remaining <= 0:
        raise ChildFailed(f"no time left for the {kind} pass of {workload}")
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            env={**os.environ, **CHILD_ENV},
            stdout=subprocess.PIPE,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"the {kind} pass of {workload} ran past the deadline") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise ChildFailed(f"the {kind} pass of {workload} exited with status {done.returncode}")
    return PassResult.from_jsonable(json.loads(lines[-1]))


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _print_end_to_end(workload, untraced) -> Dict[str, float]:
    from perfbench.metrics import END_TO_END, end_to_end, tail

    print(
        f"untraced pass: {untraced.cycles} cycles, trials attempted {untraced.attempted}, "
        f"failed {untraced.failed}; the host ran at {untraced.host_speed:.3f} of the "
        "reference speed, and times are normalised to it (perfbench/hostspeed.py)"
    )
    medians = end_to_end(untraced)
    values = {}
    for metric in END_TO_END:
        value, samples = medians[metric.name]
        values[metric.name] = value
        extra = ""
        tail_value = tail(samples)
        if tail_value is not None:
            extra = f", p{tail_value[0]} {_fmt(tail_value[1])}"
        print(
            f"  {metric.name:<22} {_fmt(value):>12} {metric.unit:<9} "
            f"median of {len(samples)}{extra}  ({metric.what})"
        )
    counts = untraced.counts
    if workload.paper_reference:
        print(
            f"reference: core.cost_ratio {counts.get('core.cost_ratio', 0.0):.3f} (mean of "
            f"the DirQ trials); {100 * counts.get('paper_band_share', 0.0):.0f} % of them lie "
            "in the paper's 45-55 % band of flooding cost (CostComparison.within_band)"
        )
    else:
        print(
            "reference: none; this workload has no published result, so its "
            f"outputs are unvalidated (core.cost_ratio {counts.get('core.cost_ratio', 0.0):.3f})"
        )
    return values


def _print_per_layer(untraced, traced) -> Dict[str, float]:
    from perfbench.metrics import PER_LAYER, per_layer, traced_trial_s

    print(
        f"traced pass: {traced.cycles} cycles, {traced.trials_executed} trials executed, "
        f"trials attempted {traced.attempted}, failed {traced.failed}; "
        f"{traced.spans_kept} spans kept, {traced.spans_dropped} aggregated only; "
        f"the host ran at {traced.host_speed:.3f} of the reference speed"
    )
    if traced.trace_path:
        print(f"  spans: {os.path.relpath(traced.trace_path)}")
    if traced.missing_entry_points:
        print(f"  entry points not found: {', '.join(traced.missing_entry_points)}")
    values = per_layer(untraced, traced)
    trial_s = traced_trial_s(traced)
    runner_share = values["runner.self_s"] / trial_s if trial_s else 0.0
    print(
        f"  traced trial {_fmt(trial_s)} s wall, of which runner.self_s "
        f"{100 * runner_share:.2f} %; self time per executed trial by layer:"
    )
    layers: Dict[str, float] = {}
    for key, seconds in traced.self_s.items():
        name = key.split(".", 1)[0]
        layers[name] = layers.get(name, 0.0) + seconds
    traced_s = sum(layers.values())
    for name, seconds in sorted(layers.items(), key=lambda item: -item[1]):
        per_trial = traced.host_speed * seconds / max(traced.trials_executed, 1)
        share = seconds / traced_s if traced_s else 0.0
        print(f"    {name:<12} {_fmt(per_trial):>12} s  {100 * share:6.2f} % of traced time")
    for metric in PER_LAYER:
        print(f"  {metric.name:<28} {_fmt(values[metric.name]):>12} {metric.unit:<6} ({metric.what})")
    return values


def _run_workload(args, name: str, trace: bool, full_untraced: bool, deadline: Optional[float]):
    """Run one workload's passes; returns (attempted, failed, e2e, per-layer)."""
    from perfbench.workloads import MIN_SETUPS, WORKLOADS

    workload = WORKLOADS[name]
    print(
        f"== {name} (seed {args.seed}, {args.seconds:g} s per pass, BLAS threads pinned "
        f"to 1, one inline worker): {workload.why}"
    )
    seconds = args.seconds if full_untraced else 0.0
    setups = MIN_SETUPS if full_untraced else 0
    untraced = _spawn(args, name, "untraced", seconds, setups, None, deadline)
    attempted, failed = untraced.attempted, untraced.failed
    e2e = _print_end_to_end(workload, untraced)
    layers: Dict[str, float] = {}
    if trace:
        traced = _spawn(args, name, "traced", args.seconds, 0, untraced.fingerprints, deadline)
        attempted += traced.attempted
        failed += traced.failed
        layers = _print_per_layer(untraced, traced)
        untraced.problems += traced.problems
    for problem in untraced.problems:
        print(f"  FAILED {problem}")
    return attempted, failed, e2e, layers


def summary(attempted: int, failed: int, values: Dict[str, float]) -> Dict[str, object]:
    """The result object printed as the last line (``<workload>/`` prefixes allowed)."""
    from perfbench.metrics import END_TO_END, PER_LAYER

    units = {metric.name: metric.unit for metric in END_TO_END + PER_LAYER}
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name.rsplit("/", 1)[-1]]}
            for name, value in values.items()
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    args = _parse(argv)
    if args.child:
        return _child(args)
    from perfbench.workloads import WORKLOADS

    every = args.workload == "all"
    deadline = None if every else time.monotonic() + DEADLINE_S
    attempted = failed = 0
    values: Dict[str, float] = {}
    try:
        for name in WORKLOADS if every else [args.workload]:
            trace = every or bool(args.trace)
            a, f, e2e, layers = _run_workload(args, name, trace, every or not args.trace, deadline)
            attempted += a
            failed += f
            if every:
                values.update({f"{name}/{k}": v for k, v in {**e2e, **layers}.items()})
            else:
                values.update(layers if args.trace else e2e)
    except ChildFailed as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    print(json.dumps(summary(attempted, failed, values)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
