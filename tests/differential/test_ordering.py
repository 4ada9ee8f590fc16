"""The threshold-crossing fan-out order is part of the contract.

The brute loop visits ``(node, sensor_type)`` pairs in sorted node-id
order (the runner's alive list) and sorted sensor-type order within a
node (``SensorNode.sensors_sorted``).  Every update transmission -- and
therefore every MAC send, energy charge, and RNG draw downstream --
happens in that order, so the columnar fan-out must reproduce it exactly
even though its row arrays are laid out type-major for the numpy pass.

These tests spy on ``DirQNode._maybe_send_update`` (the single funnel
both paths route crossings through) and compare the sequences of calls
that evaluate the Fig. 3 trigger, using a heterogeneous network whose
sensor types *interleave*: consecutive node ids mount different,
overlapping type subsets, so a type-major walk would visibly scramble
the sequence.
"""

from __future__ import annotations

from repro.core.dirq_node import DirQNode
from repro.experiments.runner import run_experiment
from repro.scenarios.static import small_network
from repro.sensors.types import HUMIDITY, LIGHT, PRESSURE, TEMPERATURE

from tests.differential.abharness import assert_bit_identical
from tests.differential.reference import reference_tick

NUM_NODES = 12

#: Interleaved mounts: neighbours in id order share some types and differ
#: in others, and the subsets are deliberately not sorted in the mapping.
INTERLEAVED = {
    nid: [
        [LIGHT, TEMPERATURE],
        [PRESSURE, HUMIDITY, TEMPERATURE],
        [HUMIDITY, LIGHT],
        [TEMPERATURE, PRESSURE],
    ][nid % 4]
    for nid in range(NUM_NODES)
}


def _config():
    return small_network(num_nodes=NUM_NODES, num_epochs=160).replace(
        sensors_per_node=dict(INTERLEAVED), query_sensor_type=None
    )


def _crossing_sequence(monkeypatch, config, reference=False, tick_only=False):
    """Run one arm, recording every (epoch, node, sensor_type) call.

    Epoch-tick crossings pass ``table=``/``delta=`` (both the brute loop
    and the columnar fan-out do); message- and repair-handler calls do
    not.  ``tick_only`` keeps just the former -- the handler calls happen
    at event-delivery times and are *not* subject to the sorted-order
    contract (they are still covered by the full-sequence equality test).

    A tick call that the table's "no update due" memo answers changes
    nothing but the suppression counter; the brute loop makes one for
    every quiet row, the columnar pass skips it, so it is not recorded.
    """
    calls = []
    original = DirQNode._maybe_send_update

    def spy(self, sensor_type, **kwargs):
        epoch = int(self.sim.now)
        table = kwargs.get("table")
        if table is None:
            if not tick_only:
                calls.append((epoch, self.node_id, sensor_type))
        else:
            memo = table._no_update_memo
            if memo != (table._version, kwargs["delta"]):
                calls.append((epoch, self.node_id, sensor_type))
        return original(self, sensor_type, **kwargs)

    monkeypatch.setattr(DirQNode, "_maybe_send_update", spy)
    if reference:
        reference_tick(monkeypatch)
    try:
        run_experiment(config)
    finally:
        monkeypatch.undo()
    return calls


class TestCrossingOrder:
    def test_columnar_sequence_equals_brute_sequence(self, monkeypatch):
        cfg = _config()
        brute = _crossing_sequence(monkeypatch, cfg, reference=True)
        columnar = _crossing_sequence(monkeypatch, cfg)
        assert brute, "the spy should observe at least one crossing"
        assert columnar == brute

    def test_brute_order_is_the_documented_sort(self, monkeypatch):
        """Pin the reference semantics the columnar path must mirror:
        within an epoch, crossings are sorted by (node id, sensor type)."""
        seq = _crossing_sequence(
            monkeypatch, _config(), reference=True, tick_only=True
        )
        per_epoch = {}
        for epoch, nid, stype in seq:
            per_epoch.setdefault(epoch, []).append((nid, stype))
        assert per_epoch
        for epoch, pairs in per_epoch.items():
            assert pairs == sorted(pairs), f"epoch {epoch}"

    def test_interleaved_types_bit_identical(self):
        """Full-observable A/B on the interleaved network (the fan-out
        permutation covers rows of several types per node)."""
        assert_bit_identical(_config(), context="interleaved-types")
