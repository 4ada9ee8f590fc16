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

import pytest

from repro.scenarios.registry import build_config
from repro.scenarios.static import small_network

from .abharness import run_counting


class TestProductionPath:
    def test_default_dirq_trial_runs_columnar_with_fast_beacons(self):
        _, work = run_counting(small_network(num_nodes=8, num_epochs=40))
        assert work.rebuilds == 1
        assert work.on_epoch == 0
        assert work.beacons > 0
        assert work.frame_beacons == 0

    def test_flooding_trials_tick_per_node_on_the_beacon_fast_path(self):
        """Flooding has no sampling loop to vectorise, but its MAC takes
        the same beacon fast path as DirQ's."""
        _, work = run_counting(
            small_network(num_nodes=8, num_epochs=40).with_flooding()
        )
        assert work.rebuilds == 0
        assert work.on_epoch == 8 * 40
        assert work.beacons > 0
        assert work.frame_beacons == 0

    @pytest.mark.parametrize("variant", ["dirq", "atc"])
    def test_oracle_runs_the_references(self, variant):
        """The oracle never runs the engine it checks: no columnar rows,
        every alive node's ``on_epoch`` every epoch, a frame per beacon."""
        cfg = small_network(num_nodes=8, num_epochs=40)
        if variant == "atc":
            cfg = cfg.with_atc()
        _, work = run_counting(cfg, reference=True)
        assert work.rebuilds == 0
        assert work.on_epoch == 8 * 40
        assert work.beacons > 0
        assert work.frame_beacons == work.beacons


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
