"""Measurements that no MAC-level simplification may move.

On a lossless static network the MAC only discovers neighbours and carries
payloads: no node dies, no link changes, and control traffic is excluded
from every cost figure.  The start-up beacon phase, the neighbour
bookkeeping and the beacon fast path may all change without changing any
measurement of these cells.  The digests below are
``TrialResult.fingerprint(include_key=False)`` -- every measurement, no
config hash -- recorded before LMAC's slot election and occupancy
tracking were deleted, and must never move with the MAC again.  The
flooding cells were recorded while flooding still sent frame beacons; they
pin that the beacon fast path changed no flooding measurement.  The
``scale-5000`` cell joined later, when the pins grew to cover every
registry scenario; four epochs cover its build, its start-up beacons and
its first range updates.  Each cell's work is pinned beside its digest
(:mod:`tests.differential.work`).
"""

from __future__ import annotations

import pytest

from repro.experiments.campaign import PROTOCOLS
from repro.scenarios.registry import build_config
from repro.scenarios.static import small_network

from .abharness import run_counting
from .work import assert_work

#: (cell, protocol variant) -> full measurement digest.
STATIC_DIGESTS = {
    ("static-paper", "dirq"): "f86a54213c77b04b92f213ea2143e877bde10ff32fd0f5bbca3d0c386bfb4fef",
    ("static-paper", "atc"): "b1f786d42c693bf165750dfd785eded0f070dfb880513112e6c87a5ba93ea982",
    ("static-paper", "flooding"): "4de95b8db3157526108f1672cd089bc3d6bd93cb6cec9c4e4c81d977b71f40ef",
    ("bursty-20", "dirq"): "aa2b7b57b41270abe5a64beee0f7fe0dca34675d49fac08c79329bcb05d59090",
    ("bursty-20", "atc"): "fea4c3994c6f5886838a35cd6e40cfdfaad6bd1287979c59c29cd529ead32e7a",
    ("bursty-20", "flooding"): "061a9c316fbe31a209298a2d6fa5d852b71733e2ebb2f83f1b630d09711645f8",
    ("diurnal-60", "dirq"): "be9501611e77fb1bf1fbbcf10fd167440afe931843310f937848767a8ef1accd",
    ("diurnal-60", "atc"): "9ebb718c74909adf2e0003a63860e279cecf2cbdf763531f4419e18aeeea406a",
    ("ramp-load", "dirq"): "b2cc71d73ffa6e75c3795b3651ae9c752637ffa4b501f3ed1fa2ea917a347faf",
    ("ramp-load", "atc"): "0dec9efe178973293e0dde30757dab87326824fafa7d9781ef2735557d35f57f",
    ("scale-500", "dirq"): "5b1c0f6ac0df60bcfc32b54bf5c4467930d2b5442df440d0158253cd5e3adaa9",
    ("scale-5000", "dirq"): "d55ae3c725884dd54d75473c20b5377230074528cdac55f191a3d2cbc989275f",
    ("small-10", "dirq"): "4b37889e2a8b100d2326e41a804b3afd44fff1ae63498b97cdd3e70b64f2d498",
}

#: Cells shorter than the default 400 epochs (their build dominates).
EPOCHS = {"scale-500": 60, "scale-5000": 4}


def _config(cell: str, variant: str):
    if cell == "small-10":
        cfg = small_network(num_nodes=10, num_epochs=80)
    else:
        cfg = build_config(cell, EPOCHS.get(cell, 400), 1)
    return PROTOCOLS[variant](cfg)


@pytest.mark.parametrize("cell,variant", sorted(STATIC_DIGESTS), ids=str)
def test_static_cell_measurements_are_pinned(cell, variant):
    result, work = run_counting(_config(cell, variant))
    assert result.fingerprint(include_key=False) == STATIC_DIGESTS[(cell, variant)]
    assert_work(cell, variant, work)
