"""The columnar tick, the beacon fast path and one-event frames are the
production path.

Every DirQ trial runs :class:`~repro.experiments.columnar.ColumnarTick`,
every LMAC stack tries the beacon fast path first, and every frame that
no runner checkpoint splits is one event; the differential harness's
reference arm (:func:`tests.differential.reference.reference_tick`) runs
none of them.  These tests pin that wiring, so a refactor cannot quietly
move production back onto the references, or the oracle onto the engine
it checks, and pin the work the engines save: how often the columnar
rows are rebuilt (only when the alive list, a sensor suite or a table set
changes, never on a mobility re-link), which rows a tick fires, and one
event per frame.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.dirq_node import DirQNode
from repro.experiments.columnar import ColumnarTick
from repro.network.channel import WirelessChannel
from repro.scenarios.registry import build_config
from repro.scenarios.static import small_network
from repro.sensors.sensor import Sensor

from ..helpers import build_mini_world, constant_dataset, line_topology
from .abharness import Work, _counting, run_counting
from .test_static_identity import STATIC_DIGESTS
from .work import WORK


def run_frame_paths(config, reference=False):
    """:func:`run_counting`, counting which frame path each frame took.

    ``one_event`` counts frames transmitted and delivered in one event;
    ``split`` counts frames whose transmit half ran on its own (in a
    transmit event, or inline at a frame beacon's tick).
    """
    calls: Counter = Counter()
    with pytest.MonkeyPatch.context() as patch:
        for attr, field in (("_frame", "one_event"), ("_frame_transmit", "split")):
            method = getattr(WirelessChannel, attr)
            patch.setattr(WirelessChannel, attr, _counting(calls, field, method))
        _, work = run_counting(config, reference=reference)
    return calls, work


class TestProductionPath:
    def test_default_dirq_trial_runs_columnar_with_fast_beacons(self):
        calls, work = run_frame_paths(small_network(num_nodes=8, num_epochs=40))
        assert work.rebuilds == 1
        assert work.on_epoch == 0
        assert work.beacons > 0
        assert work.frame_beacons == 0
        # Every payload frame is one event.
        assert calls["split"] == 0
        assert calls["one_event"] == work.transmissions - work.beacons > 0

    def test_flooding_trials_skip_the_tick_and_take_the_beacon_fast_path(self):
        """Flooding keeps no per-epoch state, so its trials run no epoch
        tick at all, but its MAC takes the same beacon fast path as
        DirQ's."""
        _, work = run_counting(
            small_network(num_nodes=8, num_epochs=40).with_flooding()
        )
        assert work.rebuilds == 0
        assert work.on_epoch == 0
        assert work.beacons > 0
        assert work.frame_beacons == 0

    @pytest.mark.parametrize("variant", ["dirq", "atc"])
    def test_oracle_runs_the_references(self, variant):
        """The oracle never runs the engine it checks: no columnar rows,
        every alive node's ``on_epoch`` every epoch, a frame per beacon,
        and every frame on the split path."""
        cfg = small_network(num_nodes=8, num_epochs=40)
        if variant == "atc":
            cfg = cfg.with_atc()
        calls, work = run_frame_paths(cfg, reference=True)
        assert work.rebuilds == 0
        assert work.on_epoch == 8 * 40
        assert work.beacons > 0
        assert work.frame_beacons == work.beacons
        assert calls["one_event"] == 0
        assert calls["split"] == work.transmissions


def test_lossless_static_flooding_sends_no_frame_beacons():
    """Deterministic work count: on a lossless static network every
    beacon tick of a flooding trial takes the fast path."""
    _, work = run_counting(build_config("static-paper", 400, 1).with_flooding())
    assert work.beacons == 2_000
    assert work.frame_beacons == 0


#: (scenario, rebuilds at 200 epochs, seed 3).  A re-link keeps the alive
#: list, so the mobility scenarios build their rows once; churn and
#: battery deaths rebuild once per effective alive-set change.
REBUILDS = (
    ("mobile-40", 1),
    ("scale-500-mobile", 1),
    ("churn-revive", 18),
    ("energy-tiered", 10),
)


@pytest.mark.parametrize("name,expected", REBUILDS, ids=lambda v: str(v))
def test_rows_rebuild_only_on_alive_set_changes(name, expected):
    _, work = run_counting(build_config(name, num_epochs=200, seed=3))
    assert work.rebuilds == expected


def test_a_row_that_just_sent_its_update_is_not_fired_again():
    """Sending arms the "no update due" memo, so a row whose reading stays
    inside its range is suppressed from the next tick on, even though its
    last act was a send; with constant readings only epoch 0 fires."""
    topology = line_topology(4)
    world = build_mini_world(
        topology,
        constant_dataset(topology.node_ids, {0: 20.0, 1: 21.0, 2: 22.0, 3: 23.0}),
    )
    tick = ColumnarTick(world.dataset, world.config)
    tick.set_protocols([world.protocols[nid] for nid in sorted(world.protocols)])
    calls: Counter = Counter()
    fired = []
    with pytest.MonkeyPatch.context() as patch:
        method = DirQNode._maybe_send_update
        patch.setattr(DirQNode, "_maybe_send_update", _counting(calls, "rows", method))
        for epoch in range(4):
            world.sim.run_until(float(epoch))
            before = calls["rows"]
            tick.tick(epoch)
            fired.append(calls["rows"] - before)
            world.sim.run_until(epoch + 0.9)
    tick.finalize()
    assert fired == [4, 0, 0, 0]


def test_a_node_outside_the_rows_rebuilds_nothing():
    """The tick hooks only the protocols of its rows: ``set_protocols``
    and ``finalize`` take the hooks off, so a sensor attached to a node
    the rows left rebuilds nothing, and one attached to a node in the rows
    rebuilds them once."""
    topology = line_topology(4)
    world = build_mini_world(
        topology,
        constant_dataset(topology.node_ids, {0: 20.0, 1: 21.0, 2: 22.0, 3: 23.0}),
    )
    protocols = [world.protocols[nid] for nid in sorted(world.protocols)]
    tick = ColumnarTick(world.dataset, world.config)
    calls: Counter = Counter()

    def attach(nid):
        world.nodes[nid].attach_sensor(Sensor(nid, "temperature", world.dataset))

    with pytest.MonkeyPatch.context() as patch:
        rebuild = ColumnarTick._rebuild
        patch.setattr(ColumnarTick, "_rebuild", _counting(calls, "rows", rebuild))
        rebuilds = []
        for epoch, change in enumerate(
            [
                lambda: tick.set_protocols(protocols),
                lambda: tick.set_protocols(protocols[:3]),
                lambda: attach(3),
                lambda: attach(2),
                lambda: None,
            ]
        ):
            world.sim.run_until(float(epoch))
            change()
            tick.tick(epoch)
            rebuilds.append(calls["rows"])
            world.sim.run_until(epoch + 0.9)
    tick.finalize()
    assert rebuilds == [1, 2, 2, 3, 3]
    assert all(p.node.observer is None and p.tables.observer is None for p in protocols)


#: The cells whose every frame and every beacon tick is one event: the
#: static pins and the lossy cells, where no node dies and no checkpoint
#: splits a frame.
ONE_EVENT_CELLS = sorted(STATIC_DIGESTS) + [
    ("static-paper channel_loss=0.2", "atc"),
    ("static-paper channel_loss=0.2", "flooding"),
]


@pytest.mark.parametrize("cell,variant", ONE_EVENT_CELLS, ids=str)
def test_each_frame_and_each_beacon_tick_is_one_event(cell, variant):
    """Read off the pinned work, which the identity tests hold every run
    of these cells to: a transmission is a payload frame, a frame beacon
    or a fast beacon, and each is one event -- except that a frame beacon
    also costs its tick."""
    work = Work(*WORK[(cell, variant)])
    assert work.events == work.transmissions + work.frame_beacons
