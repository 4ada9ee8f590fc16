"""One pass over a workload: repeated cycles of cold and cache-served campaigns.

A cycle opens a fresh trial cache and results store in a temporary
directory, runs the workload's campaign cold (every trial executes and is
recorded), then runs campaigns under new names over the same cells for
``CACHED_SECONDS``, which the trial cache serves without executing
anything.  The pass starts a new cycle only while one more fits in its
time budget; it always runs at least one.

Times are normalised by the host's speed, sampled while the pass runs
(:mod:`perfbench.hostspeed`).

Every trial is checked, and a trial that raises or fails a check counts as
failed:

* its ``fingerprint(include_key=False)`` equals the reference -- the first
  cycle's fingerprint of the same cell, or the untraced pass's when a
  traced pass is given ``expected`` fingerprints;
* its ledger's reception count equals ``channel.stats.deliveries``;
* it injected at least one query;
* a cache-served trial came from the cache with the cold trial's
  fingerprint, and each pass left one store row per trial.

Fingerprints are compared within a run only, never against committed
values, so a fix that changes results does not break the benchmark.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import gc
import resource
import tempfile
import time
import traceback
from pathlib import Path
from statistics import fmean
from typing import Callable, Dict, List, Optional

from .hostspeed import HostSpeed
from .spans import Patches, SpanRecorder, TrialProbe, install_spans
from .workloads import CACHED_SECONDS, Workload

#: Failure descriptions kept per pass (the counts are always complete).
MAX_PROBLEMS = 20


@dataclasses.dataclass
class PassResult:
    """Samples, counts and check outcomes of one pass (JSON-serialisable)."""

    workload: str
    seed: int
    traced: bool
    cycles: int = 0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = dataclasses.field(default_factory=list)
    #: Normalised CPU seconds of each build (campaign trials, then any
    #: extra builds).
    setup_s: List[float] = dataclasses.field(default_factory=list)
    #: One sample per cold pass: epochs simulated per normalised CPU second
    #: of ``run``.
    epochs_per_s: List[float] = dataclasses.field(default_factory=list)
    #: One sample per cold pass: trials executed and recorded per
    #: normalised wall second.
    trials_per_s: List[float] = dataclasses.field(default_factory=list)
    #: One sample per cycle: trials its cache-served passes served per
    #: normalised wall second.
    cached_trials_per_s: List[float] = dataclasses.field(default_factory=list)
    #: One sample per cold pass: normalised CPU seconds per trial.
    cold_cpu_s: List[float] = dataclasses.field(default_factory=list)
    #: Mean host speed over the pass, relative to the reference speed.
    host_speed: float = 1.0
    #: Cell label -> fingerprint of its first executed trial.
    fingerprints: Dict[str, str] = dataclasses.field(default_factory=dict)
    #: Per-trial public counters and outcomes of the first cycle.
    counts: Dict[str, float] = dataclasses.field(default_factory=dict)
    peak_rss_mb: float = 0.0
    trials_executed: int = 0
    trials_recorded: int = 0
    trials_cache_served: int = 0
    cold_wall_s: float = 0.0
    #: Wall minus CPU seconds, summed over every campaign pass.
    io_wait_s: float = 0.0
    # Traced pass only.
    self_s: Dict[str, float] = dataclasses.field(default_factory=dict)
    total_s: Dict[str, float] = dataclasses.field(default_factory=dict)
    calls: Dict[str, int] = dataclasses.field(default_factory=dict)
    tallies: Dict[str, int] = dataclasses.field(default_factory=dict)
    spans_kept: int = 0
    spans_dropped: int = 0
    missing_entry_points: List[str] = dataclasses.field(default_factory=list)
    trace_path: str = ""

    def record(self, label: str, problems: List[str]) -> None:
        """Account one attempted trial and whatever checks it failed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            room = MAX_PROBLEMS - len(self.problems)
            self.problems.extend(f"{label}: {p}" for p in problems[: max(room, 0)])

    def to_jsonable(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def from_jsonable(cls, payload: Dict[str, object]) -> "PassResult":
        return cls(**payload)


def count_facts(results_and_facts) -> Dict[str, float]:
    """Per-trial counters over one cold pass (averaged when it has many cells).

    ``core.update_yield`` is updates sent over updates considered (sent +
    suppressed); ``core.cost_ratio`` and ``core.mean_accuracy`` average the
    DirQ trials only, since flooding has no DirQ cost to compare.
    """
    from repro.metrics.cost import compare_costs

    pairs = list(results_and_facts)
    trials = len(pairs)
    summed: Dict[str, float] = {}
    for result, facts in pairs:
        for name, value in facts.items():
            summed[name] = summed.get(name, 0) + value
        summed["workload.queries"] = summed.get("workload.queries", 0) + result.num_queries
        summed["tree.relinks"] = summed.get("tree.relinks", 0) + result.num_relinks
    counts = {name: value / trials for name, value in summed.items()}
    sent = summed.get("core.updates_sent", 0)
    considered = sent + summed.get("core.updates_suppressed", 0)
    counts["core.update_yield"] = sent / considered if considered else 0.0
    dirq = [result for result, _ in pairs if result.config.protocol == "dirq"]
    costs = [
        compare_costs(r.ledger, r.flooding_cost_per_query, r.num_queries, flooding_is_total=False)
        for r in dirq
    ]
    counts["core.cost_ratio"] = fmean(c.ratio for c in costs) if costs else 0.0
    counts["core.mean_accuracy"] = fmean(r.mean_accuracy for r in dirq) if dirq else 0.0
    # Share of DirQ trials whose cost ratio lies in the paper's 45-55 % band.
    counts["paper_band_share"] = fmean(c.within_band() for c in costs) if costs else 0.0
    return counts


def check_executed(
    result, fingerprint: str, facts: Optional[Dict[str, float]], reference: Optional[str]
) -> List[str]:
    """The checks on one executed trial (see the module docstring)."""
    problems = []
    if reference is not None and fingerprint != reference:
        problems.append("fingerprint differs from the reference run of this cell")
    if facts is None:
        problems.append("no timing or counters were captured for this trial")
    elif facts["ledger_rx"] != facts["channel.deliveries"]:
        problems.append(
            f"ledger counts {facts['ledger_rx']} receptions but the channel "
            f"delivered {facts['channel.deliveries']}"
        )
    if result.num_queries < 1:
        problems.append("no query was injected")
    return problems


def run_pass(
    workload: Workload,
    seed: int,
    seconds: float,
    work_dir: Path,
    *,
    traced: bool = False,
    setups: int = 0,
    expected: Optional[Dict[str, str]] = None,
    trace_path: Optional[Path] = None,
    cached_seconds: float = CACHED_SECONDS,
) -> PassResult:
    """Run cycles for ``seconds`` (at least one) and return the pass's samples.

    ``setups`` tops the set-up samples up with extra builds; ``expected``
    fixes the reference fingerprints (a traced pass checks against the
    untraced one); ``trace_path`` receives the traced pass's Chrome trace;
    ``cached_seconds`` is each cycle's time for cache-served campaigns.
    """
    from repro.experiments.runner import ExperimentRunner

    out = PassResult(workload=workload.name, seed=seed, traced=traced)
    cells = workload.campaign("warm-up", seed).trial_specs()
    # One untimed build per process: first-time imports and allocator
    # growth would otherwise land in the first set-up sample.
    ExperimentRunner(copy.deepcopy(cells[0].config)).build()
    gc.collect()

    speed = HostSpeed()
    recorder = SpanRecorder(speed.clock) if traced else None
    quiet = recorder.paused if recorder is not None else contextlib.nullcontext
    references: Dict[str, str] = dict(expected or {})
    work_dir.mkdir(parents=True, exist_ok=True)
    with speed, Patches() as patches:
        if recorder is not None:
            install_spans(recorder, patches)
        probe = TrialProbe(speed, quiet)
        probe.install(patches)
        deadline = time.perf_counter() + seconds
        while True:
            began = time.perf_counter()
            _run_cycle(workload, seed, work_dir, probe, out, references, quiet, cached_seconds)
            out.cycles += 1
            now = time.perf_counter()
            if now + (now - began) > deadline:
                break
        out.missing_entry_points = list(patches.missing)

        for i in range(max(0, setups - len(out.setup_s))):
            runner = ExperimentRunner(copy.deepcopy(cells[i % len(cells)].config))
            gc.collect()
            mark = speed.mark()
            runner.build()
            out.setup_s.append(speed.cpu_s(speed.since(mark)))
        out.host_speed = speed.mean_scale()

    out.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if recorder is not None:
        out.self_s = dict(recorder.self_s)
        out.total_s = dict(recorder.total_s)
        out.calls = dict(recorder.calls)
        out.tallies = dict(recorder.tallies)
        out.spans_kept = len(recorder.spans)
        out.spans_dropped = recorder.dropped
        if trace_path is not None:
            from repro.obs.trace_export import write_chrome_trace

            label = f"perfbench {workload.name} seed {seed}"
            write_chrome_trace(trace_path, recorder.chrome_trace(label))
            out.trace_path = str(trace_path)
    return out


def _run_cycle(
    workload: Workload,
    seed: int,
    work_dir: Path,
    probe: TrialProbe,
    out: PassResult,
    references: Dict[str, str],
    quiet: Callable,
    cached_seconds: float,
) -> None:
    from repro.experiments.batch import BatchRunner
    from repro.experiments.store import ResultsStore

    with tempfile.TemporaryDirectory(dir=work_dir, prefix="cycle-") as tmp:
        store = ResultsStore(Path(tmp) / "campaigns.sqlite")
        try:
            runner = BatchRunner(max_workers=1, cache_dir=Path(tmp) / "cache")
            cold = _cold_pass(workload, seed, store, runner, probe, out, references, quiet)
            if cold is None:
                return
            served = wall = 0.0
            until = time.perf_counter() + cached_seconds
            index = 0
            while index == 0 or time.perf_counter() < until:
                trials, seconds = _cached_pass(
                    workload, seed, index, store, runner, probe.speed, cold, out, quiet
                )
                served += trials
                wall += seconds
                index += 1
            # One sample per cycle: the host alternates between two speeds
            # every few seconds, and a median of millisecond-long passes
            # would flip between them.
            if wall > 0:
                out.cached_trials_per_s.append(served / wall)
        finally:
            store.close()


def _campaign(spec, store, runner, speed: HostSpeed, out: PassResult):
    """Run one campaign; returns (results, its interval, error text or None)."""
    from repro.experiments import campaign

    served = []
    gc.collect()
    mark = speed.mark()
    error = None
    try:
        campaign.run_missing(spec, store, runner=runner, progress=served.append)
    except Exception:  # a failing trial is counted, and the run goes on
        error = traceback.format_exc(limit=4)
    interval = speed.since(mark)
    out.io_wait_s += max(0.0, interval.wall_s - interval.cpu_s)
    return served, interval, error


def _cold_pass(workload, seed, store, runner, probe, out, references, quiet):
    """Execute every cell once; returns cell label -> fingerprint, or None."""
    spec = workload.campaign("cold", seed)
    probe.builds.clear()
    probe.trials.clear()
    served, interval, error = _campaign(spec, store, runner, probe.speed, out)
    timings = list(probe.trials)

    fingerprints: Dict[str, str] = {}
    with quiet():
        stored = store.count(spec.campaign_id)
        for index, result in enumerate(served):
            label = result.label
            facts = timings[index].facts if index < len(timings) else None
            fingerprint = result.fingerprint(include_key=False)
            problems = check_executed(result, fingerprint, facts, references.get(label))
            if error is None and stored != spec.total_trials:
                problems.append(f"store holds {stored} rows for {spec.total_trials} trials")
            references.setdefault(label, fingerprint)
            fingerprints[label] = fingerprint
            out.record(label, problems)
        if error is not None:
            out.record("cold pass", [f"a trial raised:\n{error}"])
            return None
        if out.cycles == 0:
            out.fingerprints = dict(fingerprints)
            if len(timings) == len(served):
                out.counts = count_facts(
                    (result, timing.facts) for result, timing in zip(served, timings)
                )

    speed = probe.speed
    trials = len(served)
    out.trials_executed += trials
    out.trials_recorded += trials
    out.cold_wall_s += interval.wall_s
    out.setup_s.extend(speed.cpu_s(build) for timing in timings for build in timing.builds)
    run_cpu = sum(probe.simulation_cpu_s(timing) for timing in timings)
    if run_cpu > 0:
        out.epochs_per_s.append(workload.num_epochs * len(timings) / run_cpu)
    out.trials_per_s.append(trials / speed.wall_s(interval))
    out.cold_cpu_s.append(speed.cpu_s(interval) / trials)
    return fingerprints


def _cached_pass(workload, seed, index, store, runner, speed, cold, out, quiet):
    """Serve every cell from the cache; returns (trials served, normalised wall s)."""
    spec = workload.campaign(f"cached-{index}", seed)
    served, interval, error = _campaign(spec, store, runner, speed, out)
    with quiet():
        stored = store.count(spec.campaign_id)
        for result in served:
            problems = []
            if not result.from_cache:
                problems.append("a cache-served campaign executed the trial again")
            if result.fingerprint(include_key=False) != cold.get(result.label):
                problems.append("cache-served fingerprint differs from the cold trial")
            if error is None and stored != spec.total_trials:
                problems.append(f"store holds {stored} rows for {spec.total_trials} trials")
            out.record(result.label, problems)
    if error is not None:
        out.record("cache-served pass", [f"a trial raised:\n{error}"])
        return 0, 0.0
    out.trials_recorded += len(served)
    out.trials_cache_served += len(served)
    return len(served), speed.wall_s(interval)
