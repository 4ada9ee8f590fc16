"""Wrappers installed from the benchmark's side: trial timing and spans.

Both passes install a :class:`TrialProbe` on ``ExperimentRunner.build`` and
``ExperimentRunner.run``: two clock marks per call, so set-up and
simulation time can be told apart inside a campaign trial.  The traced pass
also installs :class:`SpanRecorder` wrappers around the entry points of each
layer (:func:`install_spans`).  Wrappers go on class attributes and on the
names ``repro.experiments.runner`` imports, before any world is built, so
callbacks bound later -- the LMAC receive hook registered with the channel,
the beacon timer, the channel's delivery events -- run through them too.

The program's own tracer and ``ExperimentConfig.instrument`` stay off:
turning the tracer on disables LMAC's beacon fast path, and the traced pass
must time the path that runs without it.  Every wrapper is removed again
when its :class:`Patches` context exits.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
from collections import defaultdict
from typing import Callable, Dict, List, Optional

from .hostspeed import HostSpeed, Interval

#: Spans kept in memory for the Chrome trace (the first ones of the pass).
#: Self times and call counts cover every span regardless.
SPAN_BUDGET = 50_000

_MISSING = object()


class Patches:
    """Attribute replacements on classes and modules, undone on exit.

    An entry point that no longer exists is recorded in :attr:`missing`
    instead of failing the pass, so a benchmark run against code that
    renamed it still measures everything else.
    """

    def __init__(self) -> None:
        self._undo: List[tuple] = []
        self.missing: List[str] = []

    def wrap(self, owner, attr: str, make: Callable) -> None:
        raw = vars(owner).get(attr, _MISSING)
        if raw is _MISSING:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(_named(make(raw.__func__), raw.__func__))
        else:
            replacement = _named(make(raw), raw)
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, raw))

    def restore(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def _named(wrapper, wrapped):
    return functools.update_wrapper(wrapper, wrapped)


# ---------------------------------------------------------------------------
# Trial timing (both passes)
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class TrialTiming:
    """One trial's ``run`` call, the builds made inside it, and its world's facts."""

    builds: List[Interval]
    run: Interval
    facts: Dict[str, float]


def world_facts(world) -> Dict[str, float]:
    """Public counters of a finished world, read once after ``run``.

    ``ledger_rx`` and ``channel.deliveries`` must agree: every reception
    the channel delivers is charged exactly once.
    """
    stats = world.channel.stats
    protocols = list(world.protocols.values())
    return {
        "simulation.events": world.sim.executed,
        "simulation.events_cancelled": world.sim.cancelled_total,
        "channel.transmissions": stats.broadcasts + stats.unicasts,
        "channel.deliveries": stats.deliveries,
        "channel.drops": stats.drops_loss + stats.drops_dead_node + stats.drops_no_link,
        "ledger_rx": world.ledger.total_count(direction="rx"),
        "mac.beacons": sum(mac.beacons_sent for mac in world.macs.values()),
        "core.updates_sent": sum(getattr(p, "updates_sent", 0) for p in protocols),
        "core.updates_suppressed": sum(
            getattr(p, "updates_suppressed", 0) for p in protocols
        ),
        "core.queries_forwarded": sum(
            getattr(p, "queries_forwarded", 0) for p in protocols
        ),
        "tick.rows": world.sampling.count(),
    }


class TrialProbe:
    """Times ``ExperimentRunner.build`` and ``.run`` through a :class:`HostSpeed`.

    ``run`` builds the world itself when nothing built it first, so a
    trial's simulation time is its ``run`` time minus the builds made
    inside it.  The world's counters are read as ``run`` returns, and the
    world is not kept.
    """

    def __init__(self, speed: HostSpeed, quiet: Callable = contextlib.nullcontext) -> None:
        self.speed = speed
        self.builds: List[Interval] = []
        self.trials: List[TrialTiming] = []
        self._quiet = quiet

    def install(self, patches: Patches) -> None:
        from repro.experiments.runner import ExperimentRunner

        patches.wrap(ExperimentRunner, "build", self._timed_build)
        patches.wrap(ExperimentRunner, "run", self._timed_run)

    def _timed_build(self, build):
        builds = self.builds
        speed = self.speed

        def timed_build(runner, *args, **kwargs):
            if runner.world is not None:
                return build(runner, *args, **kwargs)
            mark = speed.mark()
            world = build(runner, *args, **kwargs)
            builds.append(speed.since(mark))
            return world

        return timed_build

    def _timed_run(self, run):
        builds = self.builds
        trials = self.trials
        speed = self.speed
        quiet = self._quiet

        def timed_run(runner, *args, **kwargs):
            before = len(builds)
            mark = speed.mark()
            result = run(runner, *args, **kwargs)
            interval = speed.since(mark)
            with quiet():
                facts = world_facts(runner.world)
            trials.append(TrialTiming(builds[before:], interval, facts))
            return result

        return timed_run

    def simulation_cpu_s(self, timing: TrialTiming) -> float:
        """Normalised CPU seconds of ``run`` after the build."""
        speed = self.speed
        return speed.cpu_s(timing.run) - sum(speed.cpu_s(b) for b in timing.builds)


# ---------------------------------------------------------------------------
# Spans (traced pass)
# ---------------------------------------------------------------------------


class SpanRecorder:
    """Spans around calls into each layer, aggregated as they close.

    A span is keyed ``<layer>.<entry point>``.  Its self time is its
    duration minus the time its child spans cover; self time, total time
    and calls are summed per key for every span.  The first
    :data:`SPAN_BUDGET` spans are also kept with start, end, parent span
    and trial id, for the Chrome trace written at the end of the pass.
    """

    def __init__(self, clock: Callable[[], float], budget: int = SPAN_BUDGET) -> None:
        self.clock = clock
        self.origin = self.clock()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Sums of selected return values (``core.readvertise`` returns the
        #: number of updates it sent).
        self.tallies: Dict[str, int] = defaultdict(int)
        self.spans: List[list] = []
        self.budget = budget
        self.dropped = 0
        self.trial = -1
        self._paused = 0
        self._stack: List[list] = []

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run unrecorded (the benchmark's own checks)."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def wrap(self, key: str, fn: Callable, tally: Optional[str] = None) -> Callable:
        recorder = self
        stack = self._stack
        spans = self.spans
        self_s, total_s, calls = self.self_s, self.total_s, self.calls
        clock = self.clock
        budget = self.budget

        def span(*args, **kwargs):
            if recorder._paused:
                return fn(*args, **kwargs)
            index = len(spans)
            if index < budget:
                parent = stack[-1][1] if stack else -1
                spans.append([key, 0.0, -1.0, parent, recorder.trial])
            else:
                index = -1
                recorder.dropped += 1
            frame = [0.0, index]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[key] += duration - frame[0]
                total_s[key] += duration
                calls[key] += 1
                if stack:
                    stack[-1][0] += duration
                if index >= 0:
                    spans[index][1] = start
                    spans[index][2] = end
            if tally is not None:
                recorder.tallies[tally] += result
            return result

        return span

    def chrome_trace(self, label: str) -> Dict[str, object]:
        """The kept spans as Chrome trace-event JSON (host time, one lane)."""
        events: List[Dict[str, object]] = [
            {
                "name": "process_name",
                "ph": "M",
                "ts": 0,
                "pid": 1,
                "tid": 0,
                "args": {"name": label},
            }
        ]
        for index, (key, start, end, parent, trial) in enumerate(self.spans):
            if end < start:
                continue  # never closed: the call raised out of the pass
            events.append(
                {
                    "name": key,
                    "cat": key.split(".", 1)[0],
                    "ph": "X",
                    "ts": int((start - self.origin) * 1e6),
                    "dur": int((end - start) * 1e6),
                    "pid": 1,
                    "tid": 1,
                    "args": {"span": index, "parent": parent, "trial": trial},
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"spans_kept": len(self.spans), "spans_dropped": self.dropped},
        }


def install_spans(recorder: SpanRecorder, patches: Patches) -> None:
    """Wrap every layer's entry points (see README.md for the layer table)."""
    from repro.core.dirq_node import DirQNode
    from repro.core.dirq_root import DirQRoot
    from repro.core.flooding import FloodingNode, FloodingRoot
    from repro.experiments import batch, campaign
    from repro.experiments import runner as runner_module
    from repro.experiments.columnar import ColumnarTick
    from repro.experiments.store import ResultsStore
    from repro.mac.lmac import LMACProtocol
    from repro.metrics.audit import QueryAudit
    from repro.network.channel import WirelessChannel
    from repro.network.spanning_tree import SpanningTree
    from repro.network.topology import Topology
    from repro.sensors.dataset import SensorDataset
    from repro.simulation.engine import Simulator
    from repro.workload.generator import QueryWorkloadGenerator

    ExperimentRunner = runner_module.ExperimentRunner
    entry_points = (
        ("setup.topology", runner_module, "random_geometric_topology"),
        ("setup.dataset", SensorDataset, "generate"),
        ("setup.stack", LMACProtocol, "__init__"),
        ("setup.stack", LMACProtocol, "on_start"),
        ("setup.tree", runner_module, "build_bfs_tree"),
        ("simulation.run_until", Simulator, "run_until"),
        ("channel.broadcast", WirelessChannel, "broadcast"),
        ("channel.unicast", WirelessChannel, "unicast"),
        ("mac.send", LMACProtocol, "send"),
        ("mac.beacon", LMACProtocol, "_beacon_tick"),
        ("mac.emit_beacon", LMACProtocol, "_emit_beacon"),
        ("mac.receive", LMACProtocol, "_on_channel_receive"),
        ("mac.observe", LMACProtocol, "_observe_neighbor"),
        ("core.on_payload", DirQNode, "on_payload"),
        ("core.on_payload", FloodingNode, "on_payload"),
        ("core.inject_query", DirQRoot, "inject_query"),
        ("core.inject_query", FloodingRoot, "inject_query"),
        ("core.start_new_hour", DirQRoot, "start_new_hour"),
        ("tick.on_epoch", DirQNode, "on_epoch"),
        ("tick.on_epoch", FloodingNode, "on_epoch"),
        ("tick.columnar", ColumnarTick, "tick"),
        ("workload.generate", QueryWorkloadGenerator, "generate"),
        ("workload.evaluate", runner_module, "evaluate_query"),
        ("workload.register", QueryAudit, "register_query"),
        ("tree.relink", Topology, "with_positions_delta"),
        ("tree.rebuild", runner_module, "rebuild_spanning_tree"),
        ("tree.repair", SpanningTree, "repair"),
        ("tree.attach", SpanningTree, "with_new_node"),
        ("tree.update_topology", WirelessChannel, "update_topology"),
        ("campaign.run_missing", campaign, "run_missing"),
        ("campaign.batch", batch.BatchRunner, "run"),
        ("campaign.execute", batch, "_execute_trial"),
        ("campaign.store", ResultsStore, "record_trial"),
        ("campaign.fingerprint", batch.TrialResult, "fingerprint"),
    )
    for key, owner, attr in entry_points:
        patches.wrap(owner, attr, functools.partial(recorder.wrap, key))

    # Each call re-advertises a re-parented node; its return value is the
    # number of updates that sent.
    patches.wrap(
        DirQNode,
        "readvertise",
        functools.partial(recorder.wrap, "core.readvertise", tally="core.readvertised"),
    )

    def build_span(build):
        spanned = recorder.wrap("setup.build", build)

        def build_once(runner, *args, **kwargs):
            # run() calls build() again on an already-built world.
            if runner.world is not None:
                return build(runner, *args, **kwargs)
            return spanned(runner, *args, **kwargs)

        return build_once

    def run_span(run):
        spanned = recorder.wrap("runner.run", run)

        def run_trial(*args, **kwargs):
            recorder.trial += 1
            return spanned(*args, **kwargs)

        return run_trial

    def schedule_span(schedule_at):
        # The channel schedules one delivery event per transmission,
        # labelled ``deliver[<kind>]``; its callback walks the receivers.
        def schedule(sim, at, callback, *args, **kwargs):
            label = kwargs.get("label", args[1] if len(args) > 1 else "")
            if label.startswith("deliver["):
                callback = recorder.wrap("channel.deliver", callback)
            return schedule_at(sim, at, callback, *args, **kwargs)

        return schedule

    patches.wrap(ExperimentRunner, "build", build_span)
    patches.wrap(ExperimentRunner, "run", run_span)
    patches.wrap(Simulator, "schedule_at", schedule_span)
