"""The observability catalogue: every metric, trace category, and phase.

Mirrors ``STREAM_REGISTRY`` (``repro.simulation.rng``): a declarative
literal table that makes names checkable statically.  Two call sites
incrementing subtly different spellings of the same counter produce two
half-counts that no test catches -- so every metric name and trace
category used anywhere in ``src/repro`` must be a string literal
registered here.  ``tools/reprolint`` rules RL501-RL503 enforce this at
lint time; :class:`~repro.obs.metrics.MetricsRegistry` enforces it at
runtime when enabled (and skips the check entirely when disabled, so the
null path stays free).

The tables map each name to a one-line description -- the same text
``docs/observability.md`` renders as the metric catalogue.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: Every metric name `MetricsRegistry` accepts: name -> description.
#: Prefixes follow the owning subsystem (engine/channel/mac/dirq/runner).
METRIC_CATALOGUE: Dict[str, str] = {
    "engine.events_executed": "events popped and run by the simulator loop",
    "engine.events_cancelled": "events cancelled before execution",
    "engine.compactions": "lazily-cancelled-event heap compaction passes",
    "channel.broadcasts": "broadcast transmissions offered to the channel",
    "channel.unicasts": "unicast transmissions offered to the channel",
    "channel.deliveries": "receptions actually delivered to a radio",
    "channel.drops_loss": "receptions dropped by the loss model",
    "channel.drops_dead_node": "receptions dropped at a dead receiver",
    "channel.drops_no_link": "unicasts dropped for want of a link",
    "channel.fanout": "histogram of per-transmission broadcast fan-out",
    "channel.frames_split": "MAC frames that needed a transmit event",
    "mac.beacons_sent": "LMAC control beacons transmitted",
    "mac.frame_beacons": "LMAC beacons sent as frames (fast path declined)",
    "dirq.updates_sent": "range updates transmitted toward the root",
    "dirq.updates_suppressed": "epoch ticks ending with no update needed",
    "dirq.queries_received": "query packets received by DirQ nodes",
    "dirq.queries_forwarded": "query packets forwarded down the tree",
    "dirq.table_entries": "histogram of per-node range-table sizes",
    "runner.epochs": "epochs simulated by the experiment runner",
    "runner.relinks": "mobility-driven topology re-links applied",
    "runner.scenario_events": "scripted/churn topology events applied",
    "runner.queries_injected": "workload queries injected at the root",
}

#: Every `Tracer` record category: category -> description.  The names
#: are exactly the literals the simulation layers record; the tracer keeps
#: the newest ``max_records`` of them in a ring buffer.
TRACE_CATALOGUE: Dict[str, str] = {
    "channel.tx": "a transmission enters the channel",
    "channel.rx": "a reception is delivered",
    "lmac.neighbor_lost": "an LMAC neighbour timed out",
    "lmac.neighbor_found": "an LMAC neighbour was discovered",
    "dirq.update": "a DirQ range update is sent",
    "dirq.estimate": "a DirQ estimate is relayed",
    "dirq.neighbor_lost": "DirQ reacts to a lost neighbour",
    "dirq.query_injected": "the root injects a query",
    "dirq.query_received": "a node receives a query",
    "dirq.query_unroutable": "a query could not be routed",
}

#: The epoch-tick phase taxonomy, in the order the runner executes them.
#: ``docs/observability.md`` documents what each phase covers.
PHASES: Tuple[str, ...] = (
    "mac",
    "scenario-hooks",
    "tree-repair",
    "sample",
    "channel",
    "protocol-tick",
)
