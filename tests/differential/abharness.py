"""Production-vs-reference A/B harness.

Every trial runs the columnar epoch tick and LMAC's beacon fast path.
Both are pure implementation strategies: every observable of a trial --
the cost breakdown, the per-window update series, the query audit, the
energy ledger down to per-(kind, direction) entries, ATC's δ history,
scenario telemetry -- must be *bit-identical* to the readable references,
the per-node ``on_epoch`` loop and frame beacons.  The reference arm runs
the same config under :func:`tests.differential.reference.reference_tick`,
so both arms share one cache key and differ only in the code that ran.
This module is the single definition of "identical": it runs both arms of
a configuration and either returns the list of observables that disagree
(empty = equivalent) or asserts equivalence with a per-observable diff.

The catch-all instrument is :meth:`TrialResult.fingerprint`, key
included since both arms share it: the same digest the batch cache and
the campaign store use for bit-identity guarantees.  The granular
comparisons exist so a regression fails on the *first* observable that
diverges, with both values printed, instead of on an opaque digest.

Every trial the harness runs also reports its :class:`Work`: counters of
the finished world plus the calls it counts on the way.  A change that
moves the work but no measurement (an extra event per epoch, a beacon
that leaves the fast path) leaves every digest alone and moves these.
"""

from __future__ import annotations

from collections import Counter
from typing import List, NamedTuple, Tuple

import pytest

from repro.core.dirq_node import DirQNode
from repro.core.flooding import FloodingNode
from repro.experiments.batch import TrialResult, TrialSpec
from repro.experiments.columnar import ColumnarTick
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentRunner
from repro.mac.lmac import LMACProtocol

from .reference import reference_tick


class Work(NamedTuple):
    """The deterministic work of one trial."""

    events: int  # events the engine executed
    cancelled: int  # events ever cancelled
    transmissions: int  # channel broadcasts + unicasts
    deliveries: int
    drops: int  # loss, dead-node and no-link drops
    beacons: int  # summed LMAC ``beacons_sent``
    frame_beacons: int  # ``LMACProtocol._emit_beacon`` calls
    updates_sent: int  # this and the next two: summed over the protocols
    updates_suppressed: int
    queries_forwarded: int
    readvertise: int  # ``DirQNode.readvertise`` calls
    tick_rows: int  # sensor acquisitions (``world.sampling.count()``)
    on_epoch: int  # per-node ``on_epoch`` calls
    rebuilds: int  # ``ColumnarTick`` row rebuilds
    relinks: int  # mobility re-links (``num_relinks``)


#: (owner, method, ``Work`` field) of every call a trial counts.
COUNTED_CALLS = (
    (LMACProtocol, "_emit_beacon", "frame_beacons"),
    (DirQNode, "readvertise", "readvertise"),
    (DirQNode, "on_epoch", "on_epoch"),
    (FloodingNode, "on_epoch", "on_epoch"),
    (ColumnarTick, "_rebuild", "rebuilds"),
)


def _counting(calls: Counter, field: str, method):
    def counted(self, *args, **kwargs):
        calls[field] += 1
        return method(self, *args, **kwargs)

    return counted


def run_counting(
    config: ExperimentConfig, reference: bool = False
) -> Tuple[TrialResult, Work]:
    """Run one arm of the A/B pair; its `TrialResult` and its `Work`.

    ``reference=True`` runs the trial under :func:`reference_tick`; the
    default runs the production path.  Mirrors the batch worker entry
    point: the spec snapshots the config, and the runner runs the spec's
    config, to which it writes nothing.  Counting a call only
    wraps the method, so it moves no measurement.  Every reception the
    channel delivers must be charged to the ledger exactly once, and a
    reference arm must have run the references, so that no A/B pair
    passes because its oracle quietly ran the production path.
    """
    spec = TrialSpec(
        label="reference" if reference else "production", config=config
    )
    calls: Counter = Counter()
    with pytest.MonkeyPatch.context() as patch:
        for owner, attr, field in COUNTED_CALLS:
            patch.setattr(owner, attr, _counting(calls, field, getattr(owner, attr)))
        if reference:
            reference_tick(patch)
        runner = ExperimentRunner(spec.config)
        result = runner.run()
    world = runner.world
    stats = world.channel.stats
    rx = world.ledger.total_count(direction="rx")
    assert rx == stats.deliveries, f"ledger rx {rx} != {stats.deliveries} deliveries"
    protocols = list(world.protocols.values())
    work = Work(
        events=world.sim.executed,
        cancelled=world.sim.cancelled_total,
        transmissions=stats.broadcasts + stats.unicasts,
        deliveries=stats.deliveries,
        drops=stats.drops_loss + stats.drops_dead_node + stats.drops_no_link,
        beacons=sum(mac.beacons_sent for mac in world.macs.values()),
        frame_beacons=calls["frame_beacons"],
        updates_sent=sum(getattr(p, "updates_sent", 0) for p in protocols),
        updates_suppressed=sum(
            getattr(p, "updates_suppressed", 0) for p in protocols
        ),
        queries_forwarded=sum(getattr(p, "queries_forwarded", 0) for p in protocols),
        readvertise=calls["readvertise"],
        tick_rows=world.sampling.count(),
        on_epoch=calls["on_epoch"],
        rebuilds=calls["rebuilds"],
        relinks=result.num_relinks,
    )
    if reference:
        # Every beacon went out as a frame, and every payload frame took
        # a transmit event (frames_split also counts frames whose sender
        # died before transmitting, hence >=).
        assert work.rebuilds == 0, "the reference arm ran the columnar tick"
        assert work.frame_beacons == work.beacons, "a reference beacon was fast"
        assert stats.frames_split >= work.transmissions - work.beacons, (
            "a reference frame took one event"
        )
    return TrialResult.from_experiment(spec, result), work


def run_arm(config: ExperimentConfig, reference: bool = False) -> TrialResult:
    """:func:`run_counting`'s `TrialResult` alone."""
    return run_counting(config, reference)[0]


#: Observable name -> extractor.  Ordered from the most diagnostic (a
#: ledger entry names the node, kind, and direction that drifted) to the
#: broadest; ``assert_bit_identical`` checks them in this order.
OBSERVABLES = (
    ("ledger.breakdown_by_kind", lambda r: r.ledger.breakdown_by_kind()),
    ("breakdown", lambda r: r.breakdown),
    ("update_series", lambda r: r.update_series),
    ("per_query_costs", lambda r: r.per_query_costs),
    ("num_queries", lambda r: r.num_queries),
    ("atc_delta_history", lambda r: r.atc_delta_history),
    ("alive_at_end", lambda r: r.alive_at_end),
    ("scenario_events", lambda r: r.scenario_events),
    ("num_relinks", lambda r: r.num_relinks),
    (
        # The per-query accuracy series: every audit record, with its
        # injection epoch, queried population, and exact receiver sets.
        "audit_records",
        lambda r: [
            (
                rec.query_id,
                rec.injection_epoch,
                rec.population,
                sorted(rec.sources),
                sorted(rec.should_receive),
                sorted(rec.received),
                sorted(rec.source_claims),
            )
            for rec in r.audit.records
        ],
    ),
)


def mismatched_observables(
    config: ExperimentConfig,
) -> Tuple[List[str], TrialResult, TrialResult]:
    """Run both arms; return the names of observables that differ."""
    reference = run_arm(config, reference=True)
    production = run_arm(config)
    bad = [
        name
        for name, extract in OBSERVABLES
        if extract(reference) != extract(production)
    ]
    if reference.fingerprint() != production.fingerprint():
        bad.append("fingerprint")
    return bad, reference, production


def assert_bit_identical(config: ExperimentConfig, context: str = "") -> None:
    """Assert production == reference on every observable, diffing the first."""
    prefix = f"{context}: " if context else ""
    bad, reference, production = mismatched_observables(config)
    if not bad:
        return
    name = bad[0]
    extract = dict(OBSERVABLES).get(name)
    detail = ""
    if extract is not None:
        detail = (
            f"\n  reference:  {extract(reference)!r}"
            f"\n  production: {extract(production)!r}"
        )
    raise AssertionError(
        f"{prefix}production path diverged from the reference on "
        f"{bad} (config={describe(config)}){detail}"
    )


def describe(config: ExperimentConfig) -> str:
    """A paste-able summary of the fields a repro needs."""
    return (
        f"ExperimentConfig(num_nodes={config.num_nodes}, "
        f"num_epochs={config.num_epochs}, seed={config.seed}, "
        f"channel_loss={config.channel_loss}, "
        f"sensors_per_node={config.sensors_per_node!r}, "
        f"threshold_mode={config.dirq.threshold_mode!r}, "
        f"delta_percent={config.dirq.delta_percent}, "
        f"scenario={config.scenario!r}, "
        f"phenomena_method={config.phenomena_method!r})"
    )


def shrink_num_epochs(config: ExperimentConfig) -> ExperimentConfig:
    """Shrink a *failing* config to the fewest epochs that still fail.

    Bisects on ``num_epochs`` (the dominant cost axis), re-running the
    A/B pair at each candidate.  Used by the randomized property tests to
    print a minimal reproduction when a seed finds a divergence, so the
    committed regression test can be small.
    """
    failing = config.num_epochs
    lo = 1
    while lo < failing:
        mid = (lo + failing) // 2
        bad, _, _ = mismatched_observables(config.replace(num_epochs=mid))
        if bad:
            failing = mid
        else:
            lo = mid + 1
    return config.replace(num_epochs=failing)
