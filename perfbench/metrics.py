"""Metric names, units and how each is computed from a pass.

End-to-end metrics come from the untraced pass, each the median of the
run's samples.  Per-layer metrics marked as counts come from the components'
public counters in the untraced pass (they repeat exactly); every other
per-layer metric comes from the traced pass's spans, averaged per executed
trial.  Times are in seconds at the reference host speed
(:mod:`perfbench.hostspeed`), except ``campaign.io_wait_s``: waiting does
not scale with the processor.  ``BENCHMARK.json`` lists the same names and
units.
"""

from __future__ import annotations

import dataclasses
import statistics
from typing import Dict, List, Optional, Tuple

from .passes import PassResult


@dataclasses.dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    what: str


END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", "normalised CPU seconds from config to built world, per build"),
    Metric("epochs_per_s", "epochs/s", "higher", "epochs per normalised CPU second of run(), per cold pass"),
    Metric("trials_per_s", "trials/s", "higher", "trials executed and stored per normalised wall second, per cold pass"),
    Metric("cached_trials_per_s", "trials/s", "higher", "trials served from the cache per normalised wall second, per cycle"),
    Metric("peak_rss_mb", "MB", "lower", "peak resident memory of the fresh untraced-pass process, yardstick included"),
)

PER_LAYER: Tuple[Metric, ...] = (
    Metric("setup.topology_s", "s", "lower", "random_geometric_topology"),
    Metric("setup.dataset_s", "s", "lower", "SensorDataset.generate"),
    Metric("setup.stack_s", "s", "lower", "LMACProtocol construction and start"),
    Metric("setup.tree_s", "s", "lower", "build_bfs_tree during the build"),
    Metric("setup.self_s", "s", "lower", "the rest of ExperimentRunner.build"),
    Metric("runner.self_s", "s", "lower", "ExperimentRunner.run minus all child spans"),
    Metric("simulation.events", "count", "lower", "events executed (counter)"),
    Metric("simulation.events_cancelled", "count", "lower", "events cancelled (counter)"),
    Metric("simulation.us_per_event", "us", "lower", "engine self time per executed event"),
    Metric("simulation.self_s", "s", "lower", "Simulator.run_until minus its callbacks"),
    Metric("channel.transmissions", "count", "lower", "broadcasts + unicasts (counter)"),
    Metric("channel.deliveries", "count", "lower", "receptions delivered (counter)"),
    Metric("channel.drops", "count", "lower", "loss, dead-node and no-link drops (counter)"),
    Metric("channel.self_s", "s", "lower", "broadcast/unicast and delivery events"),
    Metric("mac.beacons", "count", "lower", "beacons sent (counter)"),
    Metric("mac.fast_beacon_share", "ratio", "higher", "beacons applied without a frame"),
    Metric("mac.frames_received", "count", "lower", "frames through the receive hook"),
    Metric("mac.neighbor_events", "count", "lower", "receptions on the full neighbour-bookkeeping path"),
    Metric("mac.self_s", "s", "lower", "send, beacon timer and receive hook"),
    Metric("core.updates_sent", "count", "lower", "DirQ update messages sent (counter)"),
    Metric("core.update_yield", "ratio", "lower", "updates sent / (sent + suppressed) (counter)"),
    Metric("core.queries_forwarded", "count", "lower", "queries forwarded down the tree (counter)"),
    Metric("core.readvertisements", "count", "lower", "updates sent by re-advertisement"),
    Metric("core.self_s", "s", "lower", "on_payload, readvertise, inject_query, start_new_hour"),
    Metric("core.cost_ratio", "ratio", "lower", "DirQ cost over flooding the same queries (outcome)"),
    Metric("core.mean_accuracy", "ratio", "higher", "reached / should-reach nodes per query (outcome)"),
    Metric("tick.rows", "count", "lower", "sensor readings taken (counter)"),
    Metric("tick.self_s", "s", "lower", "DirQNode.on_epoch or ColumnarTick.tick"),
    Metric("workload.queries", "count", "lower", "queries injected (counter)"),
    Metric("workload.self_s", "s", "lower", "query generation, ground truth, audit"),
    Metric("tree.relinks", "count", "lower", "mobility re-link rounds (counter)"),
    Metric("tree.reparented", "count", "lower", "nodes re-parented (readvertise calls)"),
    Metric("tree.self_s", "s", "lower", "re-link, rebuild, repair, attach, update_topology"),
    Metric("campaign.overhead_s", "s", "lower", "cold pass wall outside trial execution, per trial"),
    Metric("campaign.store_s", "s", "lower", "ResultsStore.record_trial, per stored trial"),
    Metric("campaign.io_wait_s", "s", "lower", "campaign wall minus CPU, per stored trial"),
    Metric("campaign.cache_hit_share", "ratio", "higher", "stored trials served from the cache"),
    Metric("trace.overhead_ratio", "ratio", "lower", "traced over untraced normalised CPU per cold trial"),
)


def median(samples: List[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def tail(samples: List[float]) -> Optional[Tuple[int, float]]:
    """The highest percentile with at least ten samples beyond it, if any."""
    index = len(samples) - 11
    percentile = 100 * (index + 1) // len(samples) if index >= 0 else 0
    if percentile <= 50:
        return None
    return percentile, sorted(samples)[index]


def end_to_end(untraced: PassResult) -> Dict[str, Tuple[float, List[float]]]:
    """Each end-to-end metric's median and the samples it came from."""
    samples = {
        "setup_s": untraced.setup_s,
        "epochs_per_s": untraced.epochs_per_s,
        "trials_per_s": untraced.trials_per_s,
        "cached_trials_per_s": untraced.cached_trials_per_s,
        "peak_rss_mb": [untraced.peak_rss_mb],
    }
    return {name: (median(values), values) for name, values in samples.items()}


def per_layer(untraced: PassResult, traced: PassResult) -> Dict[str, float]:
    """Every per-layer metric, per executed trial unless stated otherwise."""
    trials = max(traced.trials_executed, 1)
    stored = max(traced.trials_recorded, 1)
    counts = untraced.counts
    scale = traced.host_speed

    def self_of(key: str) -> float:
        return scale * traced.self_s.get(key, 0.0) / trials

    def layer(name: str) -> float:
        prefix = name + "."
        return scale * sum(v for k, v in traced.self_s.items() if k.startswith(prefix)) / trials

    def calls(key: str) -> float:
        return traced.calls.get(key, 0) / trials

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    beacons = counts.get("mac.beacons", 0.0)
    emitted_known = "LMACProtocol._emit_beacon" not in traced.missing_entry_points
    untraced_cpu = median(untraced.cold_cpu_s)
    return {
        "setup.topology_s": self_of("setup.topology"),
        "setup.dataset_s": self_of("setup.dataset"),
        "setup.stack_s": self_of("setup.stack"),
        "setup.tree_s": self_of("setup.tree"),
        "setup.self_s": self_of("setup.build"),
        "runner.self_s": layer("runner"),
        "simulation.events": counts.get("simulation.events", 0.0),
        "simulation.events_cancelled": counts.get("simulation.events_cancelled", 0.0),
        "simulation.us_per_event": 1e6 * ratio(layer("simulation"), counts.get("simulation.events", 0.0)),
        "simulation.self_s": layer("simulation"),
        "channel.transmissions": counts.get("channel.transmissions", 0.0),
        "channel.deliveries": counts.get("channel.deliveries", 0.0),
        "channel.drops": counts.get("channel.drops", 0.0),
        "channel.self_s": layer("channel"),
        "mac.beacons": beacons,
        "mac.fast_beacon_share": (
            max(0.0, 1.0 - ratio(calls("mac.emit_beacon"), beacons)) if emitted_known and beacons else 0.0
        ),
        "mac.frames_received": calls("mac.receive"),
        "mac.neighbor_events": calls("mac.observe"),
        "mac.self_s": layer("mac"),
        "core.updates_sent": counts.get("core.updates_sent", 0.0),
        "core.update_yield": counts.get("core.update_yield", 0.0),
        "core.queries_forwarded": counts.get("core.queries_forwarded", 0.0),
        "core.readvertisements": traced.tallies.get("core.readvertised", 0) / trials,
        "core.self_s": layer("core"),
        "core.cost_ratio": counts.get("core.cost_ratio", 0.0),
        "core.mean_accuracy": counts.get("core.mean_accuracy", 0.0),
        "tick.rows": counts.get("tick.rows", 0.0),
        "tick.self_s": layer("tick"),
        "workload.queries": counts.get("workload.queries", 0.0),
        "workload.self_s": layer("workload"),
        "tree.relinks": counts.get("tree.relinks", 0.0),
        "tree.reparented": calls("core.readvertise"),
        "tree.self_s": layer("tree"),
        "campaign.overhead_s": (
            scale * (traced.cold_wall_s - traced.total_s.get("campaign.execute", 0.0)) / trials
        ),
        "campaign.store_s": scale * traced.total_s.get("campaign.store", 0.0) / stored,
        "campaign.io_wait_s": traced.io_wait_s / stored,
        "campaign.cache_hit_share": traced.trials_cache_served / stored,
        "trace.overhead_ratio": ratio(median(traced.cold_cpu_s), untraced_cpu),
    }


def traced_trial_s(traced: PassResult) -> float:
    """Normalised wall seconds of one traced trial (the campaign's trial execution)."""
    return traced.host_speed * traced.total_s.get("campaign.execute", 0.0) / max(traced.trials_executed, 1)
