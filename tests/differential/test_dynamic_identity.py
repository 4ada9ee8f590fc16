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
under a new ``CACHE_VERSION``.  The ``area-blast``, ``energy-lognormal``,
``harsh-*`` and ``scale-500-churn`` cells and the ``atc`` and ``flooding``
variants of ``churn-revive`` and ``energy-tiered`` joined later, when the
pins grew to cover every registry scenario and every cell of the
repository benchmark's workloads.  The lossy cells, the ``loss`` preset's
``channel_loss=0.2`` point on ``static-paper``, joined later still: a lossy
channel drops frames through the per-transmission loss draw, sends every
beacon as a frame (the fast path declines under loss), and lets LMAC
declare live neighbours dead.  The scripted cell, ``harsh-mixed`` with
``initially_dead`` and ``topology_events`` on top of its churn, re-links
and batteries, joined when every kill and revival came to share one path
in the runner: its digests were recorded on the runner before that
change.  Each cell's work is pinned beside its digest
(:mod:`tests.differential.work`).
"""

from __future__ import annotations

import pytest

from repro.experiments.campaign import PROTOCOLS
from repro.experiments.config import TopologyEvent
from repro.scenarios.registry import build_config

from .abharness import run_counting
from .work import assert_work

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
    ("area-blast", "dirq"): "fcb780ad8e19f70607fba53a310f9811674c827076fd417db57d70606917e99f",
    ("energy-lognormal", "dirq"): "e16fe09f97fa41336c614fb2b5fac3a96ddde5068d548a548c676980708be44c",
    ("harsh-grid", "dirq"): "9227748541d4ea2abc378a3b64842b839d1fe92230c1f5ef54da437f42be3b2a",
    ("harsh-mixed", "dirq"): "1a860eaa256f653ad6dea4a95ec6d4b70d6a1f05a828bcd23ac56998254b96a8",
    ("scale-500-churn", "dirq"): "96a29a7774eb9b41770a08123c42224c0d0112b9b5ec2f0f15d1978291d03fcc",
    ("churn-revive", "atc"): "5b3213537e674a5360c30162681884c9071f2d4e871eb85b27e2a4b9fd5254ec",
    ("churn-revive", "flooding"): "11ac1af4ac9f89fec8f0fe9a1d50108ec3fcacfc424687cc4ce7887d3434ef13",
    ("energy-tiered", "atc"): "a4b7bca6128210e12fbfda0eae5968c88462186131d654f1e9c674dfc1183637",
    ("energy-tiered", "flooding"): "543b34e3c02341c958522bdd4e6a5690eb99e72223a9db4f83d63f78db4eb2f7",
    ("static-paper channel_loss=0.2", "atc"): "e62d2aff532853fbf60cfc39f4550beb119d954a47bf78bd46ece61387bd93bb",
    ("static-paper channel_loss=0.2", "flooding"): "4d976b1ce2d43f3b42b9ed96233943e6a99be5221f37d5d474d0d4be4eb95d6f",
    ("harsh-mixed scripted", "dirq"): "af36ab19d55f3c981e6c2a4792a072defacc35860547af8ad6ad33ebeedcf6ed",
    ("harsh-mixed scripted", "atc"): "5dd6b1292dec636a6f1ba61de7dbbc52690a1ebc6d048c5859cb6c342197dd31",
    ("harsh-mixed scripted", "flooding"): "6b7e4e3f4f2866b766d9a95e10e61858b3792a5ba5ef23ae38681b767f69ae9e",
}

#: Cells shorter than the default 400 epochs (the 500-node cells are slow).
EPOCHS = {"scale-500-mobile": 60, "scale-500-churn": 60}

#: Scripted liveness on top of churn: two nodes start dead, then a kill,
#: a kill of the now-dead node, an activation of an alive node, the
#: revival of a node dead from the start and of a scripted kill, and, in
#: one epoch, the revival of a node churn killed at 118 plus a kill.
SCRIPTED = {
    "initially_dead": {11, 23},
    "topology_events": [
        TopologyEvent(40, TopologyEvent.KILL, 7),
        TopologyEvent(60, TopologyEvent.KILL, 7),
        TopologyEvent(80, TopologyEvent.ACTIVATE, 3),
        TopologyEvent(150, TopologyEvent.ACTIVATE, 11),
        TopologyEvent(220, TopologyEvent.ACTIVATE, 7),
        TopologyEvent(300, TopologyEvent.ACTIVATE, 13),
        TopologyEvent(300, TopologyEvent.KILL, 40),
    ],
}

#: Cells that change a field of their registry scenario, as a preset's
#: sweep point does: cell -> (scenario, changed fields).
SWEPT = {
    "static-paper channel_loss=0.2": ("static-paper", {"channel_loss": 0.2}),
    "harsh-mixed scripted": ("harsh-mixed", SCRIPTED),
}


@pytest.mark.parametrize("cell,protocol", sorted(DYNAMIC_DIGESTS), ids=str)
def test_dynamic_cell_measurements_are_pinned(cell, protocol):
    scenario, changes = SWEPT.get(cell, (cell, {}))
    config = PROTOCOLS[protocol](build_config(scenario, EPOCHS.get(cell, 400), 1))
    result, work = run_counting(config.replace(**changes))
    assert result.fingerprint(include_key=False) == DYNAMIC_DIGESTS[(cell, protocol)]
    assert_work(cell, protocol, work)
