#!/usr/bin/env python
"""Topology dynamics: node death, cross-layer adaptation, and node addition.

The paper's §4.2 describes how DirQ adapts to topology changes.  When the
tree changes (a node dies, joins, or moves), every parent prunes the Range
Table entries of a dead or moved ex-child and propagates the change up the
tree, and every re-parented node re-advertises its ranges to its new
parent.  LMAC's cross-layer notification -- its ``on_neighbor_lost`` hook,
called when a neighbour's beacons stop arriving -- prunes the same way; it
covers a neighbour the MAC wrongly declares dead, which the tree still
counts as a child.  New nodes are discovered from their first frame and
folded into the tree.

This example scripts both events on the paper's 50-node network:

* at epoch 400 three nodes die simultaneously;
* at epoch 800 a node that was switched off at deployment time is powered on.

It then reports the query delivery quality (fraction of true source nodes
reached) in the phases before, between, and after the events, the
cross-layer notifications observed by the dead nodes' former parents, and
how many neighbours discovered the joined node.

Run with::

    python examples/topology_dynamics.py
"""

from __future__ import annotations

from repro.experiments.config import ExperimentConfig, TopologyEvent
from repro.experiments.runner import ExperimentRunner
from repro.metrics.accuracy import delivery_completeness, mean_overshoot
from repro.metrics.report import format_table


FAILURES = [7, 19, 33]
ACTIVATION = 42
FAILURE_EPOCH = 400
ACTIVATION_EPOCH = 800
NUM_EPOCHS = 1_200


def record_losses(mac, lost_at) -> None:
    """Note when ``mac`` first declares each neighbour dead, then let DirQ react."""
    dirq_hook = mac.on_neighbor_lost

    def hook(neighbor) -> None:
        lost_at.setdefault(neighbor, mac.sim.now)
        dirq_hook(neighbor)

    mac.on_neighbor_lost = hook


def main() -> None:
    config = ExperimentConfig(
        num_nodes=50,
        num_epochs=NUM_EPOCHS,
        query_period=20,
        target_coverage=0.4,
        query_sensor_type="temperature",
        seed=11,
        initially_dead={ACTIVATION},
        topology_events=[
            *[
                TopologyEvent(epoch=FAILURE_EPOCH, kind=TopologyEvent.KILL, node_id=nid)
                for nid in FAILURES
            ],
            TopologyEvent(
                epoch=ACTIVATION_EPOCH, kind=TopologyEvent.ACTIVATE, node_id=ACTIVATION
            ),
        ],
        mac_beacon_interval=10.0,
        mac_death_threshold=3,
    ).with_atc()

    runner = ExperimentRunner(config)
    world = runner.build()
    tree_before = world.tree
    lost_at = {nid: {} for nid in world.macs}
    for nid, mac in world.macs.items():
        record_losses(mac, lost_at[nid])
    parents_of_victims = {nid: tree_before.parent_of(nid) for nid in FAILURES}

    print(
        f"Running {NUM_EPOCHS} epochs: nodes {FAILURES} die at epoch {FAILURE_EPOCH}, "
        f"node {ACTIVATION} joins at epoch {ACTIVATION_EPOCH}..."
    )
    result = runner.run()

    phases = [
        ("before failures", 0, FAILURE_EPOCH - 1),
        ("failures -> join", FAILURE_EPOCH + 100, ACTIVATION_EPOCH - 1),
        ("after join", ACTIVATION_EPOCH + 100, NUM_EPOCHS),
    ]
    rows = []
    for label, first, last in phases:
        records = result.audit.records_between(first, last)
        rows.append(
            (
                label,
                len(records),
                delivery_completeness(records),
                mean_overshoot(records),
            )
        )
    print()
    print(
        format_table(
            headers=["phase", "queries", "source completeness", "overshoot pp"],
            rows=rows,
            float_format="{:.3f}",
            title="Query delivery quality across topology changes",
        )
    )

    print()
    print("Cross-layer notifications observed by the dead nodes' former parents:")
    for victim, parent in parents_of_victims.items():
        if parent in FAILURES:
            print(
                f"  node {parent:2d} lost child {victim:2d}: "
                "not reported, the parent died too"
            )
            continue
        when = lost_at[parent].get(victim)
        reported = "never" if when is None else f"t={when:.0f}"
        print(
            f"  node {parent:2d} lost child {victim:2d}: reported by LMAC at {reported}"
        )

    known_by = sum(
        1 for nid in sorted(world.alive) if ACTIVATION in world.macs[nid].neighbors
    )
    print(
        f"  node {ACTIVATION} is in the LMAC neighbour tables of {known_by} alive "
        "nodes after joining"
    )

    print()
    print(
        f"Tree size: {tree_before.num_nodes} nodes before, "
        f"{result.tree.num_nodes} after (3 dead, 1 added); "
        f"overall cost ratio vs flooding: {result.cost_ratio:.2f}"
    )


if __name__ == "__main__":
    main()
