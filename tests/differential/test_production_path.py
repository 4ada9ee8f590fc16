"""The columnar tick and the beacon fast path are the production path.

Every DirQ trial runs :class:`~repro.experiments.columnar.ColumnarTick`,
and every LMAC stack tries the beacon fast path first; the differential
harness's reference arm (:func:`tests.differential.reference.reference_tick`)
runs neither.  These tests pin that wiring, so a refactor cannot quietly
move production back onto the references, or the oracle onto the engine
it checks, and pin how often the columnar rows are rebuilt: only when the
alive list, a sensor suite or a table set changes, never on a mobility
re-link.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.dirq_node import DirQNode
from repro.core.flooding import FloodingNode
from repro.experiments.columnar import ColumnarTick
from repro.experiments.runner import ExperimentRunner
from repro.mac.lmac import LMACProtocol
from repro.scenarios.registry import build_config
from repro.scenarios.static import small_network

from .reference import reference_tick


def _run_counting(monkeypatch, config, reference=False):
    """Run one trial; return its call counts.

    Counts ``ColumnarTick`` constructions and row rebuilds, per-node
    ``on_epoch`` calls, frame beacons (``_emit_beacon`` calls) and, after
    the run, every MAC's ``beacons_sent``.
    """
    counts: Counter = Counter()

    def counting(key, original):
        def wrapper(self, *args, **kwargs):
            counts[key] += 1
            return original(self, *args, **kwargs)

        return wrapper

    for owner, attr, key in (
        (ColumnarTick, "__init__", "columnar"),
        (ColumnarTick, "_rebuild", "rebuilds"),
        (DirQNode, "on_epoch", "on_epoch"),
        (FloodingNode, "on_epoch", "on_epoch"),
        (LMACProtocol, "_emit_beacon", "frame_beacons"),
    ):
        monkeypatch.setattr(owner, attr, counting(key, getattr(owner, attr)))
    if reference:
        reference_tick(monkeypatch)
    runner = ExperimentRunner(config)
    runner.run()
    counts["beacons_sent"] = sum(
        mac.beacons_sent for mac in runner.world.macs.values()
    )
    return counts


class TestProductionPath:
    def test_default_dirq_trial_runs_columnar_with_fast_beacons(
        self, monkeypatch
    ):
        counts = _run_counting(
            monkeypatch, small_network(num_nodes=8, num_epochs=40)
        )
        assert counts["columnar"] == 1
        assert counts["on_epoch"] == 0
        assert counts["beacons_sent"] > 0
        assert counts["frame_beacons"] == 0

    def test_flooding_trials_tick_per_node_on_the_beacon_fast_path(
        self, monkeypatch
    ):
        """Flooding has no sampling loop to vectorise, but its MAC takes
        the same beacon fast path as DirQ's."""
        counts = _run_counting(
            monkeypatch, small_network(num_nodes=8, num_epochs=40).with_flooding()
        )
        assert counts["columnar"] == 0
        assert counts["on_epoch"] == 8 * 40
        assert counts["beacons_sent"] > 0
        assert counts["frame_beacons"] == 0

    @pytest.mark.parametrize("variant", ["dirq", "atc"])
    def test_oracle_runs_the_references(self, monkeypatch, variant):
        """The oracle never runs the engine it checks: no columnar tick,
        every alive node's ``on_epoch`` every epoch, a frame per beacon."""
        cfg = small_network(num_nodes=8, num_epochs=40)
        if variant == "atc":
            cfg = cfg.with_atc()
        counts = _run_counting(monkeypatch, cfg, reference=True)
        assert counts["columnar"] == 0
        assert counts["on_epoch"] == 8 * 40
        assert counts["beacons_sent"] > 0
        assert counts["frame_beacons"] == counts["beacons_sent"]


def test_lossless_static_flooding_sends_no_frame_beacons(monkeypatch):
    """Deterministic work count: on a lossless static network every
    beacon tick of a flooding trial takes the fast path."""
    counts = _run_counting(
        monkeypatch, build_config("static-paper", 400, 1).with_flooding()
    )
    assert counts["beacons_sent"] == 2_000
    assert counts["frame_beacons"] == 0


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
def test_rows_rebuild_only_on_alive_set_changes(monkeypatch, name, expected):
    cfg = build_config(name, num_epochs=200, seed=3)
    counts = _run_counting(monkeypatch, cfg)
    assert counts["rebuilds"] == expected
