"""The columnar tick is the production path, and it rebuilds rarely.

Every DirQ trial that does not pin ``tick_method="periodic"`` runs
:class:`~repro.experiments.columnar.ColumnarTick` with LMAC's beacon fast
path.  These tests pin that wiring, so a refactor cannot quietly move
production back onto the reference loop, and pin how often the columnar
rows are rebuilt: only when the alive list, a sensor suite or a table set
changes, never on a mobility re-link.
"""

from __future__ import annotations

import pytest

from repro.experiments.columnar import ColumnarTick
from repro.experiments.runner import ExperimentRunner
from repro.scenarios.registry import build_config
from repro.scenarios.static import small_network


def _run_counting(monkeypatch, config):
    """Run one trial; return (runner, ColumnarTick instances, rebuilds)."""
    ticks = []
    rebuilds = []
    init = ColumnarTick.__init__
    rebuild = ColumnarTick._rebuild

    def counting_init(self, *args, **kwargs):
        ticks.append(self)
        init(self, *args, **kwargs)

    def counting_rebuild(self):
        rebuilds.append(self)
        rebuild(self)

    monkeypatch.setattr(ColumnarTick, "__init__", counting_init)
    monkeypatch.setattr(ColumnarTick, "_rebuild", counting_rebuild)
    runner = ExperimentRunner(config)
    runner.run()
    return runner, len(ticks), len(rebuilds)


class TestProductionPath:
    def test_default_dirq_trial_runs_columnar_with_fast_beacons(
        self, monkeypatch
    ):
        cfg = small_network(num_nodes=8, num_epochs=40)
        assert cfg.tick_method is None
        runner, ticks, _ = _run_counting(monkeypatch, cfg)
        assert ticks == 1
        assert all(mac.fast_beacons for mac in runner.world.macs.values())

    @pytest.mark.parametrize(
        "config",
        [
            small_network(num_nodes=8, num_epochs=40).replace(
                tick_method="periodic"
            ),
            small_network(num_nodes=8, num_epochs=40).with_flooding(),
        ],
        ids=["periodic", "flooding"],
    )
    def test_reference_and_flooding_trials_do_neither(
        self, monkeypatch, config
    ):
        runner, ticks, _ = _run_counting(monkeypatch, config)
        assert ticks == 0
        assert not any(mac.fast_beacons for mac in runner.world.macs.values())


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
    _, _, rebuilds = _run_counting(monkeypatch, cfg)
    assert rebuilds == expected
