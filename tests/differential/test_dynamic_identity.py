"""Measurements that no re-link or death-sweep optimisation may move.

The A/B harness cannot see a regression in the topology delta: both of its
arms run the same ``Topology.with_positions_delta`` and the same LMAC.
These cells re-link, kill, revive or drain batteries, so they cover the
structural-sharing delta, beacon plans kept across re-links and the
dead-neighbour sweep on the beacon fast path.  The digests are
``TrialResult.fingerprint(include_key=False)`` at seed 1, recorded while
every re-link still rebuilt the whole graph and every fast beacon tick
refused a due death; they must never move with either again.
"""

from __future__ import annotations

import pytest

from repro.experiments.grid import PROTOCOLS
from repro.scenarios.registry import build_config

from .abharness import run_arm

#: (cell, protocol) -> full measurement digest.
DYNAMIC_DIGESTS = {
    ("mobile-40", "dirq"): "d518637fd18b237d4391c67bfd76471fda2b93eb5af946b8f7eb38ecd983176d",
    ("mobile-40", "atc"): "fff77c78aa3155501bbda9e3bc91938003673611e6d9931a6c696ba99ee2f402",
    ("mobile-40", "flooding"): "8c16254fead24e2957dc0011b59a3d2481ed72286484a364e876637b5aaa4265",
    ("mobile-all", "dirq"): "6c34e0b7d6cbbfb5e5391352dc96a8358a38efdf63b5f49a09ee78d82943cdea",
    ("group-mobile", "dirq"): "dac32ba3c49a64f2fa7855cca4fde55acf4daf0ab62bc962d8aa3c2f1798ad03",
    ("scale-500-mobile", "dirq"): "8d85685df9082279bc2df2c285aaf9cafd3f8f6df1914851851aefdb6561cb16",
    ("churn-revive", "dirq"): "2774001705049d9606e758f6ee66392aded421988235adb270e54d3f782d0a7d",
    ("energy-tiered", "dirq"): "cdaadfd7ea4cefa32c7c3cd9d0bff5bf19d18566a832aa5f0abafba813d1e374",
    ("area-blast-revive", "dirq"): "d3d9b3fccd18f9ed2981d8a7737dd716fd4fbf8dc74ee6faeccea145897cb3bf",
    ("churn-heavy", "atc"): "697656724b8f35f091e691571456b9a2400a8e12f4ca4cb6432c5073b77e3ac4",
}

#: Cells shorter than the default 400 epochs (the 500-node cell is slow).
EPOCHS = {"scale-500-mobile": 60}


@pytest.mark.parametrize("cell,protocol", sorted(DYNAMIC_DIGESTS), ids=str)
def test_dynamic_cell_measurements_are_pinned(cell, protocol):
    config = PROTOCOLS[protocol](build_config(cell, EPOCHS.get(cell, 400), 1))
    result = run_arm(config, None)
    assert result.fingerprint(include_key=False) == DYNAMIC_DIGESTS[(cell, protocol)]
