"""Measurements of the dynamic cells, pinned digest by digest.

The A/B harness cannot see a regression in the topology delta or in tree
maintenance: both of its arms run the same ``Topology.with_positions_delta``,
the same tree rule and the same LMAC.  These cells re-link, kill, revive or
drain batteries, so they cover the structural-sharing delta, beacon plans
kept across re-links, the dead-neighbour sweep on the beacon fast path, and
the one tree rule with parents that forget their ex-children.  The digests
are ``TrialResult.fingerprint(include_key=False)`` at seed 1, recorded when
kills, revivals and re-links first shared that rule; a change that moves
any of them changes what a dynamic trial measures and must re-pin them
under a new ``CACHE_VERSION``.
"""

from __future__ import annotations

import pytest

from repro.experiments.campaign import PROTOCOLS
from repro.scenarios.registry import build_config

from .abharness import run_arm

#: (cell, protocol) -> full measurement digest.
DYNAMIC_DIGESTS = {
    ("mobile-40", "dirq"): "3a5527af5da61b58ebd7b572abed33424d050fa836c8fe42047b4fc341e02247",
    ("mobile-40", "atc"): "62af05a8bf487e04b03bddad68286b4fbc792065fe4f7e2fc29fc3a91c9961d7",
    ("mobile-40", "flooding"): "92825f9273a99a193da557b073aeb958651d9a61655a031523d3cae279f926c2",
    ("mobile-all", "dirq"): "f3acec4e01592d39513a636faecc2614f47a9d6949633198a25f92e3b16690ff",
    ("group-mobile", "dirq"): "dd6b6882227599b2ccc2e38f08617c90417d9ea4b6bc2cb7c78eed4f6bcbdb6b",
    ("scale-500-mobile", "dirq"): "1e72290b9d15a1593e427729aa2d541ebb7324e96a99162387b427cadf2af190",
    ("churn-revive", "dirq"): "939c33dcce0c5091f03c8ebe62681e089c8bf53d8cad69beb2fae52e7dc9a0f4",
    ("energy-tiered", "dirq"): "b3af497d32e74c938f87516deb4c1d3557698eedc7b53785982840a33db73b0c",
    ("area-blast-revive", "dirq"): "47b48e453965c5d05c7d4a308ce88bef0677cc911077b1aa1a868b132a32e53d",
    ("churn-heavy", "atc"): "fe48ca29be5318b5364b4e3283ec5380013bfd227151e613de0232d1827712bd",
}

#: Cells shorter than the default 400 epochs (the 500-node cell is slow).
EPOCHS = {"scale-500-mobile": 60}


@pytest.mark.parametrize("cell,protocol", sorted(DYNAMIC_DIGESTS), ids=str)
def test_dynamic_cell_measurements_are_pinned(cell, protocol):
    config = PROTOCOLS[protocol](build_config(cell, EPOCHS.get(cell, 400), 1))
    result = run_arm(config)
    assert result.fingerprint(include_key=False) == DYNAMIC_DIGESTS[(cell, protocol)]
